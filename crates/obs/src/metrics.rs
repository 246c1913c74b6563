//! The typed metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Series are keyed by `(name, sorted labels)` in `BTreeMap`s, so iteration
//! — and therefore the Prometheus text rendering — is deterministic. Every
//! metric can carry HELP text and a unit via the `describe_*` methods; the
//! Anaheim metric catalogue (names, units, and the paper table/figure each
//! one reproduces) lives in `docs/METRICS.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What kind of series a name holds (one name = one kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum (`u64`).
    Counter,
    /// Last-write-wins value (`f64`).
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl MetricKind {
    fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct MetricDesc {
    help: &'static str,
    unit: &'static str,
    kind: MetricKind,
    bounds: Option<&'static [f64]>,
}

/// A series key: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl SeriesKey {
    fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        assert_valid_metric_name(name);
        let mut labels: Vec<(&'static str, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert_valid_label_name(k);
                (*k, (*v).to_string())
            })
            .collect();
        labels.sort();
        Self { name, labels }
    }
}

/// Validates a Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`). Names
/// are compile-time constants, so a violation is a programming error and
/// panics rather than producing an exposition no scraper can parse.
fn assert_valid_metric_name(name: &str) {
    let ok = !name.is_empty()
        && name.bytes().enumerate().all(|(i, b)| {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
        });
    assert!(ok, "invalid Prometheus metric name: {name:?}");
}

/// Validates a Prometheus label name (`[a-zA-Z_][a-zA-Z0-9_]*`; colons are
/// metric-name-only).
fn assert_valid_label_name(name: &str) {
    let ok = !name.is_empty()
        && name
            .bytes()
            .enumerate()
            .all(|(i, b)| b.is_ascii_alphabetic() || b == b'_' || (i > 0 && b.is_ascii_digit()));
    assert!(ok, "invalid Prometheus label name: {name:?}");
}

/// Default histogram bounds for virtual-time durations in nanoseconds:
/// decades from 100 ns to 10 s.
pub const DEFAULT_NS_BOUNDS: &[f64] = &[1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// A fixed-bucket histogram (cumulative-bucket Prometheus semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `counts[i]` = observations `<= bounds[i]`; the last entry is +Inf.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// An empty histogram over `bounds` (ascending upper bounds; a +Inf
    /// bucket is implicit).
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// The registry: typed series with deterministic rendering.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    descs: BTreeMap<&'static str, MetricDesc>,
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, f64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    ///
    /// ```
    /// use obs::MetricsRegistry;
    ///
    /// let mut m = MetricsRegistry::new();
    /// m.describe_counter("requests_total", "Requests served", "requests");
    /// m.inc("requests_total", &[("outcome", "ok")], 3);
    /// m.set_gauge("queue_depth", &[], 2.0);
    ///
    /// let text = m.render_prometheus();
    /// assert!(text.contains("# TYPE requests_total counter"));
    /// assert!(text.contains("requests_total{outcome=\"ok\"} 3"));
    /// assert!(text.contains("queue_depth 2"));
    /// assert_eq!(m.counter_value("requests_total", &[("outcome", "ok")]), 3);
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers HELP/unit metadata for a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid Prometheus metric name (as do all the
    /// recording methods): names are `'static` programmer input, and an
    /// invalid one would render an exposition no scraper can parse.
    pub fn describe_counter(&mut self, name: &'static str, help: &'static str, unit: &'static str) {
        assert_valid_metric_name(name);
        self.descs.insert(
            name,
            MetricDesc {
                help,
                unit,
                kind: MetricKind::Counter,
                bounds: None,
            },
        );
    }

    /// Registers HELP/unit metadata for a gauge.
    pub fn describe_gauge(&mut self, name: &'static str, help: &'static str, unit: &'static str) {
        assert_valid_metric_name(name);
        self.descs.insert(
            name,
            MetricDesc {
                help,
                unit,
                kind: MetricKind::Gauge,
                bounds: None,
            },
        );
    }

    /// Registers HELP/unit metadata and bucket bounds for a histogram.
    pub fn describe_histogram(
        &mut self,
        name: &'static str,
        help: &'static str,
        unit: &'static str,
        bounds: &'static [f64],
    ) {
        assert_valid_metric_name(name);
        self.descs.insert(
            name,
            MetricDesc {
                help,
                unit,
                kind: MetricKind::Histogram,
                bounds: Some(bounds),
            },
        );
    }

    /// Adds `delta` to a counter series.
    pub fn inc(&mut self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        *self
            .counters
            .entry(SeriesKey::new(name, labels))
            .or_insert(0) += delta;
    }

    /// Sets a counter series to an absolute value — for exporting an
    /// externally-accumulated monotone count (e.g. a
    /// `HealthCounters` snapshot) idempotently.
    pub fn set_counter(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        self.counters.insert(SeriesKey::new(name, labels), v);
    }

    /// Sets a gauge series.
    pub fn set_gauge(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        self.gauges.insert(SeriesKey::new(name, labels), v);
    }

    /// Adds `delta` to a gauge series (for fractional accumulations like
    /// backoff nanoseconds).
    pub fn add_gauge(&mut self, name: &'static str, labels: &[(&'static str, &str)], delta: f64) {
        *self
            .gauges
            .entry(SeriesKey::new(name, labels))
            .or_insert(0.0) += delta;
    }

    /// Raises a gauge series to `v` if `v` is larger (high-water marks).
    pub fn max_gauge(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        let e = self
            .gauges
            .entry(SeriesKey::new(name, labels))
            .or_insert(f64::NEG_INFINITY);
        if v > *e {
            *e = v;
        }
    }

    /// Records an observation into a histogram series. Bounds come from
    /// [`Self::describe_histogram`], defaulting to [`DEFAULT_NS_BOUNDS`].
    pub fn observe(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        self.observe_all(name, labels, [v]);
    }

    /// Records `values` in order into one histogram series, looking the
    /// series up once, and returns how many were recorded. The series
    /// exists afterwards even when `values` is empty.
    pub fn observe_all(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        values: impl IntoIterator<Item = f64>,
    ) -> u64 {
        let bounds = self
            .descs
            .get(name)
            .and_then(|d| d.bounds)
            .unwrap_or(DEFAULT_NS_BOUNDS);
        let h = self
            .histograms
            .entry(SeriesKey::new(name, labels))
            .or_insert_with(|| Histogram::new(bounds));
        let before = h.count;
        values.into_iter().for_each(|v| h.observe(v));
        h.count - before
    }

    /// Reads a counter series (0 when absent) — for tests and report glue.
    pub fn counter_value(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        self.counters
            .get(&SeriesKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Reads a gauge series, if set.
    pub fn gauge_value(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Option<f64> {
        self.gauges.get(&SeriesKey::new(name, labels)).copied()
    }

    /// Reads a histogram series, if any observation was recorded.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Option<&Histogram> {
        self.histograms.get(&SeriesKey::new(name, labels))
    }

    fn kind_of(&self, name: &str, fallback: MetricKind) -> MetricKind {
        self.descs.get(name).map(|d| d.kind).unwrap_or(fallback)
    }

    fn render_header(&self, out: &mut String, name: &str, fallback: MetricKind) {
        if let Some(d) = self.descs.get(name) {
            if d.unit.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", d.help);
            } else {
                let _ = writeln!(out, "# HELP {name} {} (unit: {})", d.help, d.unit);
            }
        }
        let _ = writeln!(
            out,
            "# TYPE {name} {}",
            self.kind_of(name, fallback).prometheus_type()
        );
    }

    /// Renders the Prometheus text exposition format. Deterministic:
    /// series are emitted in `BTreeMap` order, floats via Rust's
    /// shortest-roundtrip formatting.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for (k, v) in &self.counters {
            if k.name != last_name {
                self.render_header(&mut out, k.name, MetricKind::Counter);
                last_name = k.name;
            }
            let _ = writeln!(out, "{}{} {v}", k.name, render_labels(&k.labels, None));
        }
        last_name = "";
        for (k, v) in &self.gauges {
            if k.name != last_name {
                self.render_header(&mut out, k.name, MetricKind::Gauge);
                last_name = k.name;
            }
            let _ = writeln!(out, "{}{} {v}", k.name, render_labels(&k.labels, None));
        }
        last_name = "";
        for (k, h) in &self.histograms {
            if k.name != last_name {
                self.render_header(&mut out, k.name, MetricKind::Histogram);
                last_name = k.name;
            }
            let mut cumulative = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = if i < h.bounds.len() {
                    format!("{}", h.bounds[i])
                } else {
                    "+Inf".to_string()
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cumulative}",
                    k.name,
                    render_labels(&k.labels, Some(&le))
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                k.name,
                render_labels(&k.labels, None),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                k.name,
                render_labels(&k.labels, None),
                h.count
            );
        }
        out
    }
}

fn render_labels(labels: &[(&'static str, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = MetricsRegistry::new();
        m.inc("k_total", &[("class", "ntt")], 2);
        m.inc("k_total", &[("class", "ntt")], 3);
        m.inc("k_total", &[("class", "ew")], 1);
        assert_eq!(m.counter_value("k_total", &[("class", "ntt")]), 5);
        assert_eq!(m.counter_value("k_total", &[("class", "ew")]), 1);
        assert_eq!(m.counter_value("k_total", &[("class", "missing")]), 0);
    }

    #[test]
    fn gauges_set_add_max() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("depth", &[], 3.0);
        m.set_gauge("depth", &[], 1.0);
        assert_eq!(m.gauge_value("depth", &[]), Some(1.0));
        m.add_gauge("ns", &[], 2.5);
        m.add_gauge("ns", &[], 2.5);
        assert_eq!(m.gauge_value("ns", &[]), Some(5.0));
        m.max_gauge("hwm", &[], 4.0);
        m.max_gauge("hwm", &[], 2.0);
        assert_eq!(m.gauge_value("hwm", &[]), Some(4.0));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let mut m = MetricsRegistry::new();
        m.describe_histogram("lat_ns", "latency", "ns", &[10.0, 100.0]);
        for v in [5.0, 50.0, 500.0, 7.0] {
            m.observe("lat_ns", &[], v);
        }
        let h = m.histogram("lat_ns", &[]).unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 562.0);
        let text = m.render_prometheus();
        assert!(text.contains("lat_ns_bucket{le=\"10\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"100\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lat_ns_count 4"));
    }

    #[test]
    fn rendering_is_sorted_and_reproducible() {
        let build = |order_flip: bool| {
            let mut m = MetricsRegistry::new();
            let (a, b) = if order_flip { ("b", "a") } else { ("a", "b") };
            m.inc("x_total", &[("class", a)], 1);
            m.inc("x_total", &[("class", b)], 1);
            m.render_prometheus()
        };
        assert_eq!(build(false), build(true), "insertion order must not leak");
    }

    #[test]
    fn hostile_label_values_are_escaped_per_exposition_format() {
        // Label *values* are runtime data (tenant names, file paths, user
        // strings) and may be hostile; the exposition must escape `\`,
        // `"`, and newlines so one bad value cannot forge extra series or
        // break line framing.
        let mut m = MetricsRegistry::new();
        let hostile = "a\\b\"c\nd} evil_total{x=\"y\"} 999";
        m.inc("requests_total", &[("tenant", hostile)], 1);
        m.set_gauge("depth", &[("path", "C:\\temp\\\"q\"\n")], 2.0);
        let text = m.render_prometheus();
        assert!(text
            .contains("requests_total{tenant=\"a\\\\b\\\"c\\nd} evil_total{x=\\\"y\\\"} 999\"} 1"));
        assert!(text.contains("depth{path=\"C:\\\\temp\\\\\\\"q\\\"\\n\"} 2"));
        // No raw newline survives inside a sample line: every rendered
        // line is exactly one sample or one comment.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.ends_with(" 1") || line.ends_with(" 2"),
                "line framing broken by hostile value: {line:?}"
            );
        }
        // And the hostile payload never starts a line (series forgery).
        assert!(!text.lines().any(|l| l.starts_with("evil_total")));
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn hostile_metric_name_panics() {
        let mut m = MetricsRegistry::new();
        m.inc("bad name{", &[], 1);
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn metric_name_must_not_start_with_digit() {
        let mut m = MetricsRegistry::new();
        m.describe_counter("9lives_total", "nope", "");
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus label name")]
    fn hostile_label_name_panics() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("ok_metric", &[("bad-label", "v")], 1.0);
    }

    #[test]
    fn valid_names_pass_validation() {
        let mut m = MetricsRegistry::new();
        m.inc("anaheim:requests_total", &[("shard_0", "x")], 1);
        m.describe_gauge("_private9", "leading underscore ok", "");
        assert_eq!(
            m.counter_value("anaheim:requests_total", &[("shard_0", "x")]),
            1
        );
    }

    #[test]
    fn help_lines_and_label_escaping() {
        let mut m = MetricsRegistry::new();
        m.describe_counter("n_total", "Things \"counted\"", "things");
        m.inc("n_total", &[("who", "a\"b")], 1);
        let text = m.render_prometheus();
        assert!(text.contains("# HELP n_total Things \"counted\" (unit: things)"));
        assert!(text.contains("who=\"a\\\"b\""));
    }
}
