//! The metric registry: every name the benchmark emits, with its unit,
//! direction, regression bound and source. `BENCHMARK.json` is this
//! table rendered (`--describe`), and [`Values`] refuses to emit a name
//! that is not in it or to finish with one missing.

use crate::workload::SPECS;
use dvp_core::AbortReason;
use std::fmt::Write as _;

/// Where a metric's value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Host clock or `/proc` of the benchmark process.
    Host,
    /// A public counter of the program (`Cluster::stats()`,
    /// `sim.stats()`, `log_stats()`), exact and repeatable.
    Counter,
    /// The obs event stream of the traced rep, exact and repeatable.
    Trace,
    /// A driver timing public calls into one layer in isolation.
    Driver,
    /// Counters of the rep multiplied by driver unit costs.
    Estimate,
}

/// One metric of the benchmark.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Name, exactly as emitted.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Where the value comes from.
    pub source: Source,
}

fn def(name: &str, unit: &'static str, higher_is_better: bool, source: Source) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better,
        bound: None,
        source,
    }
}

const HIGHER: bool = true;
const LOWER: bool = false;

/// How long one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// The end-to-end metrics, emitted with `--trace 0`.
///
/// Each bound is about three times the widest spread measured over ten
/// seeds (README, "Noise"). The simulated metrics are that wide only
/// because the acceptance check varies the seed; on one seed they repeat
/// exactly, and a change meant only to speed the simulator must leave
/// them identical.
pub fn end_to_end() -> Vec<MetricDef> {
    let e = |name, unit, higher, bound, source| MetricDef {
        bound: Some(bound),
        ..def(name, unit, higher, source)
    };
    vec![
        e("setup_s", "s", LOWER, 0.25, Source::Host),
        e("txns_per_s", "1/s", HIGHER, 0.20, Source::Host),
        e("peak_rss_mb", "MB", LOWER, 0.05, Source::Host),
        e("commit_p99_us", "us", LOWER, 0.06, Source::Trace),
        e("commit_mean_us", "us", LOWER, 0.12, Source::Trace),
        e("failed_share", "share", LOWER, 0.25, Source::Counter),
        e("wire_bytes_per_txn", "B/txn", LOWER, 0.18, Source::Counter),
        e("forces_per_txn", "1/txn", LOWER, 0.08, Source::Counter),
    ]
}

/// The per-layer metrics, emitted with `--trace 1`. A layer is a crate.
pub fn per_layer() -> Vec<MetricDef> {
    use Source::*;
    let mut v = vec![
        // Median commit latency is 0 µs wherever most commits take the
        // fast path (handlers cost no virtual time), and an end-to-end
        // metric may never be 0 — so it is reported here, unbounded.
        def("commit_p50_us", "us", LOWER, Trace),
        def("simnet.events_per_txn", "1/txn", LOWER, Counter),
        def("simnet.sent_per_txn", "1/txn", LOWER, Counter),
        def("simnet.undelivered_share", "share", LOWER, Counter),
        def("simnet.timers_fired_per_txn", "1/txn", LOWER, Counter),
        def("simnet.peak_queue_depth", "count", LOWER, Counter),
        def("simnet.pingpong_ns_per_event", "ns/event", LOWER, Driver),
        def("simnet.lossy_retx_ns_per_event", "ns/event", LOWER, Driver),
        def("simnet.busy_share_est", "share", LOWER, Estimate),
        def("vmsg.frames_per_txn", "1/txn", LOWER, Counter),
        def("vmsg.datagrams_per_txn", "1/txn", LOWER, Counter),
        def("vmsg.retransmit_share", "share", LOWER, Counter),
        def("vmsg.duplicate_share", "share", LOWER, Counter),
        def("vmsg.ack_frames_per_vm", "1/vm", LOWER, Counter),
        def("vmsg.hint_bytes_share", "share", LOWER, Counter),
        def("vmsg.delivery_us_mean", "us", LOWER, Trace),
        def("vmsg.roundtrip_ns", "ns", LOWER, Driver),
        def("vmsg.encode_ns_per_frame", "ns/frame", LOWER, Driver),
        def("vmsg.decode_ns_per_frame", "ns/frame", LOWER, Driver),
        def("vmsg.tick_ns_32_outstanding", "ns", LOWER, Driver),
        def("vmsg.busy_share_est", "share", LOWER, Estimate),
        def("storage.records_per_force", "1/force", HIGHER, Counter),
        def("storage.stable_bytes_per_txn", "B/txn", LOWER, Counter),
        def("storage.lost_in_crash_records", "count", LOWER, Counter),
        def("storage.append_ns", "ns", LOWER, Driver),
        def("storage.force_ns", "ns", LOWER, Driver),
        def("storage.recover_ns_per_record", "ns/record", LOWER, Driver),
        def("storage.checkpoint_install_ns", "ns", LOWER, Driver),
        def("storage.busy_share_est", "share", LOWER, Estimate),
        def("core.fast_path_share", "share", HIGHER, Counter),
        def("core.solicits_per_txn", "1/txn", LOWER, Counter),
        def("core.decline_share", "share", LOWER, Counter),
        def("core.donations_per_txn", "1/txn", LOWER, Counter),
    ];
    for reason in AbortReason::ALL {
        v.push(def(
            &format!("core.abort_share.{}", reason.tag()),
            "share",
            LOWER,
            Counter,
        ));
    }
    v.extend([
        def("core.solicit_us_mean", "us", LOWER, Counter),
        def("core.gather_us_mean", "us", LOWER, Counter),
        def("core.hint_hit_share", "share", HIGHER, Counter),
        def("core.hints_per_txn", "1/txn", LOWER, Counter),
        def("core.rebalances_per_txn", "1/txn", LOWER, Counter),
        def("core.allocs_per_txn", "1/txn", LOWER, Host),
        def("core.recovery_records_replayed", "count", LOWER, Trace),
        def("core.checkpoints", "count", LOWER, Counter),
        def("core.lock_cycle_ns", "ns", LOWER, Driver),
        def("core.residual_share_est", "share", LOWER, Estimate),
        def("baselines.msgs_per_txn", "1/txn", LOWER, Counter),
        def("baselines.abort_share", "share", LOWER, Counter),
        def("baselines.in_doubt_us_max", "us", LOWER, Counter),
        def("workloads.generate_ns_per_txn", "ns/txn", LOWER, Host),
        def("obs.events_per_txn", "1/txn", LOWER, Trace),
        def("obs.trace_overhead_share", "share", LOWER, Host),
        def("ledger.coverage", "share", HIGHER, Estimate),
    ]);
    v
}

/// Values for one family of metrics, in registry order.
pub struct Values {
    defs: Vec<MetricDef>,
    vals: Vec<Option<f64>>,
}

impl Values {
    /// An empty value set over `defs`.
    pub fn new(defs: Vec<MetricDef>) -> Values {
        let vals = vec![None; defs.len()];
        Values { defs, vals }
    }

    /// Record `value` under `name`. Panics on a name outside the
    /// registry, a repeat, or a non-finite value: all three are bugs in
    /// the benchmark, never a property of the program measured.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.vals[i].replace(value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Every `(definition, value)` pair; panics if one is missing.
    pub fn finish(&self) -> Vec<(&MetricDef, f64)> {
        self.defs
            .iter()
            .zip(&self.vals)
            .map(|(d, v)| {
                (
                    d,
                    v.unwrap_or_else(|| panic!("metric {} not emitted", d.name)),
                )
            })
            .collect()
    }
}

/// `a / b`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn better(d: &MetricDef) -> &'static str {
    if d.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// Render `BENCHMARK.json` from the registry.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in SPECS.iter().enumerate() {
        let sep = if i + 1 < SPECS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, d) in e2e.iter().enumerate() {
        let sep = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            better(d),
            d.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, d) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            better(d),
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Render the result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in values.finish().into_iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let defs: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        for d in &defs {
            assert!(well_formed(&d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name.clone()), "{} declared twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                d.unit,
                d.name
            );
        }
        for d in end_to_end() {
            let b = d.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "bound of {} out of range", d.name);
        }
        let setup = end_to_end()
            .into_iter()
            .find(|d| d.name == "setup_s")
            .unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        for w in SPECS {
            assert!(well_formed(w.name), "bad workload name {}", w.name);
            assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        for reason in AbortReason::ALL {
            assert!(seen.contains(&format!("core.abort_share.{}", reason.tag())));
        }
    }

    #[test]
    fn values_reject_unknown_and_missing_names() {
        let mut v = Values::new(end_to_end());
        v.set("setup_s", 1.5);
        assert!(std::panic::catch_unwind(move || v.finish().len()).is_err());
        let unknown = std::panic::catch_unwind(|| Values::new(end_to_end()).set("nope", 1.0));
        assert!(unknown.is_err());
    }
}
