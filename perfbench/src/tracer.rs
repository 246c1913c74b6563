//! The benchmark's own span recorder, used by `--trace 1` runs.
//!
//! A span wraps one call the benchmark makes into a crate's public API:
//! name, host start and end, the enclosing span, and an optional request
//! id. Spans stay in memory and are written out as a Chrome `trace_event`
//! file when the run ends. A span's *self time* is its duration minus the
//! time its direct children cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_req(name, None, f)
    }

    /// Runs `f` inside a span tagged with a request id.
    pub fn span_req<R>(
        &mut self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time (ns) of every span: duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self times (ns) of every span named `name`, in recording order.
    pub fn self_durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// The spans as Chrome `trace_event` JSON (load it in Perfetto).
    pub fn chrome_json(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"req\": {}, \
                 \"self_us\": {:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.req.map_or("null".into(), |r| r.to_string()),
                own as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |t| t.span_req("leaf", Some(7), |_| ()));
            t.span("inner", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].req, Some(7));
        assert_eq!(s[3].parent, Some(0));
        let own = t.self_times();
        let kids = s[1].duration_ns() + s[3].duration_ns();
        assert_eq!(own[0], s[0].duration_ns() - kids);
        assert_eq!(t.durations("inner").len(), 2);
        assert!(t.chrome_json().contains("\"req\": 7"));
    }
}
