//! The metric registry: every metric the benchmark reports, with its unit
//! and direction. Every workload reports every metric of its mode, each
//! for its own operation; `BENCHMARK.json` at the repository root lists the
//! same names and `run.py` refuses a result that disagrees with it.
//!
//! Model outputs (virtual times, bytes, counts, precision) are not metrics:
//! they are pure functions of the seed, reported under `exact` and checked
//! to repeat bit for bit.

/// Which run reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: end-to-end metrics, measured without spans.
    EndToEnd,
    /// `--trace 1`: per-layer metrics, derived from the benchmark's spans.
    PerLayer,
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub mode: Mode,
}

pub const WORKLOADS: [&str; 3] = ["fhe-ckks", "sim-paper", "fleet-chaos"];

const fn m(name: &'static str, unit: &'static str, better: &'static str, mode: Mode) -> Metric {
    Metric {
        name,
        unit,
        better,
        mode,
    }
}

use Mode::{EndToEnd as E, PerLayer as P};

/// Every metric, end-to-end first.
#[rustfmt::skip]
pub const REGISTRY: &[Metric] = &[
    // ---- end-to-end (trace 0) ----
    m("setup_s", "s", "lower", E),
    m("op_ms", "ms", "lower", E),
    m("peak_rss_mb", "MB", "lower", E),
    // ---- per-layer (trace 1) ----
    // The workload's traced op, split by crate; the shares sum to 1.
    m("ckks-math.share", "share", "lower", P),
    m("ckks.share", "share", "lower", P),
    m("workloads.share", "share", "lower", P),
    m("core.share", "share", "lower", P),
    m("serving.share", "share", "lower", P),
    m("bench.share", "share", "lower", P),
    // What the program's telemetry adds to the op, as a share of it.
    m("obs.overhead_share", "share", "lower", P),
    // ckks-math by kernel class (count x unit cost); they sum to
    // ckks-math.share.
    m("ckks-math.ntt.share", "share", "lower", P),
    m("ckks-math.bconv.share", "share", "lower", P),
    m("ckks-math.ew.share", "share", "lower", P),
    m("ckks-math.automorphism.share", "share", "lower", P),
    // One keyswitch at N = 2^16; the shares sum to 1.
    m("ckks.ks.mod_up.share", "share", "lower", P),
    m("ckks.ks.key_mult.share", "share", "lower", P),
    m("ckks.ks.mod_down.share", "share", "lower", P),
    // One pass over every figure; the shares sum to 1.
    m("figures.fig8.share", "share", "lower", P),
    m("figures.fig10.share", "share", "lower", P),
    m("figures.table5.share", "share", "lower", P),
    m("figures.rest.share", "share", "lower", P),
    // The traced op and the tracer's own cost.
    m("op_ms.traced", "ms", "lower", P),
    m("trace_overhead_share", "share", "lower", P),
];

/// Looks a metric up by name.
pub fn get(name: &str) -> Option<&'static Metric> {
    REGISTRY.iter().find(|m| m.name == name)
}

/// The metrics every workload reports in `mode`, in registry order.
pub fn expected(mode: Mode) -> impl Iterator<Item = &'static Metric> {
    REGISTRY.iter().filter(move |m| m.mode == mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A metric name: starts with a letter or digit, at most 64 of
    /// `[A-Za-z0-9_.-]`.
    pub fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for m in REGISTRY {
            assert!(valid_name(m.name), "invalid name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate name {:?}", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w), "invalid workload name {w:?}");
        }
    }

    #[test]
    fn every_metric_declares_unit_and_direction() {
        for m in REGISTRY {
            assert!(valid_unit(m.unit), "{}: invalid unit {:?}", m.name, m.unit);
            assert!(
                m.better == "lower" || m.better == "higher",
                "{}: direction {:?}",
                m.name,
                m.better
            );
        }
    }

    #[test]
    fn counts_fit_the_contract() {
        let e2e = expected(Mode::EndToEnd).count();
        let layer = expected(Mode::PerLayer).count();
        assert!((1..=16).contains(&e2e), "{e2e} end-to-end metrics");
        assert!((1..=128).contains(&layer), "{layer} per-layer metrics");
        // The end-to-end block comes first, so the JSON lists read in order.
        assert!(REGISTRY[..e2e].iter().all(|m| m.mode == Mode::EndToEnd));
        assert!(get("setup_s").is_some_and(|m| m.unit == "s" && m.better == "lower"));
    }
}
