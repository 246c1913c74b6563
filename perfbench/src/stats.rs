//! Order statistics of timing samples, and the result a run reports.

use crate::metrics::{self, Mode};

/// Median and quartiles of a sample, by the same exclusive method as
/// Python's `statistics.quantiles(values, n=4)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        let n = v.len();
        if n == 1 {
            return Summary {
                samples: 1,
                min: v[0],
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let q = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            samples: n,
            min: v[0],
            q1: q(1),
            median,
            q3: q(3),
        }
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty() && values.iter().all(|&v| v > 0.0));
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One reported value with its provenance.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// Sample statistics of a timing; `None` for a single value.
    pub summary: Option<Summary>,
}

/// What one run found: counts of attempted and failed operations, the
/// failures' descriptions, the metrics, and the exact model outputs.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub values: Vec<Value>,
    /// Model outputs, counts and precision: pure functions of the seed that
    /// must repeat bit for bit. Reported beside the metrics, not as metrics.
    pub exact: Vec<(String, f64)>,
    /// Extra `key: value` lines for the human-readable log.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            if self.errors.len() < 20 {
                self.errors.push(msg);
            }
        }
    }

    /// Reports a timing (or other sampled) metric as its median.
    pub fn sampled(&mut self, name: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.values.push(Value {
            name,
            value: s.median,
            summary: Some(s),
        });
    }

    /// Reports a single value: a model output, count or ratio, or a value
    /// derived from several sampled medians.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.values.push(Value {
            name,
            value,
            summary: None,
        });
    }

    /// Reports 0 for per-layer shares of layers that do no work in this
    /// workload.
    pub fn idle(&mut self, names: &[&'static str]) {
        for &n in names {
            self.value(n, 0.0);
        }
    }

    /// Records an exact model output.
    pub fn exact(&mut self, name: impl Into<String>, value: f64) {
        self.exact.push((name.into(), value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Checks the reported metrics against the registry: exactly the
    /// expected set for the mode, all finite.
    pub fn validate(&self, mode: Mode) -> Result<(), String> {
        let want: Vec<&str> = metrics::expected(mode).map(|m| m.name).collect();
        let got: Vec<&str> = self.values.iter().map(|v| v.name).collect();
        for w in &want {
            if !got.contains(w) {
                return Err(format!("metric {w} was not reported"));
            }
        }
        for v in &self.values {
            if !want.contains(&v.name) {
                return Err(format!("metric {} is not registered for this mode", v.name));
            }
            if got.iter().filter(|&&g| g == v.name).count() > 1 {
                return Err(format!("metric {} reported twice", v.name));
            }
            if !v.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", v.name, v.value));
            }
        }
        Ok(())
    }

    /// The result as one JSON object (the last line of standard output).
    pub fn to_json(&self, workload: &str, provenance: &[(&str, String)]) -> String {
        let mut s = format!(
            "{{\"workload\": \"{workload}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        s.push_str(", \"provenance\": {");
        for (i, (k, v)) in provenance.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": \"{}\"", escape(v)));
        }
        s.push_str("}, \"errors\": [");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", escape(e)));
        }
        s.push_str("], \"exact\": {");
        for (i, (k, v)) in self.exact.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": {v:e}"));
        }
        s.push_str("}, \"metrics\": {");
        for (i, v) in self.values.iter().enumerate() {
            let m = metrics::get(v.name).expect("registered metric");
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\", \"better\": \"{}\"",
                v.name, v.value, m.unit, m.better
            ));
            if let Some(q) = v.summary {
                s.push_str(&format!(
                    ", \"samples\": {}, \"min\": {:e}, \"q1\": {:e}, \"median\": {:e}, \"q3\": {:e}",
                    q.samples, q.min, q.q1, q.median, q.q3
                ));
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.samples, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
    }

    #[test]
    fn json_escapes_quotes() {
        let mut o = Outcome::default();
        o.check(false, || "bad \"x\"".into());
        o.value("setup_s", 1.5);
        o.exact("bits", 8.25);
        let j = o.to_json("fhe-ckks", &[("seed", "1".into())]);
        assert!(j.contains("bad \\\"x\\\""));
        assert!(j.contains("\"correct\": false"));
        assert!(j.contains("\"setup_s\": {\"value\": 1.5e0"));
        assert!(j.contains("\"exact\": {\"bits\": 8.25e0}"));
    }
}
