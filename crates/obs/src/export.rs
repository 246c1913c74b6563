//! Exporters: Chrome `trace_event` JSON (Perfetto-loadable).
//!
//! The Prometheus text renderer lives on
//! [`MetricsRegistry::render_prometheus`](crate::MetricsRegistry::render_prometheus);
//! this module holds the trace exporter, which is pure formatting over a
//! [`TraceRecorder`] — deterministic because the recorder is.

use crate::span::{ArgValue, TraceRecorder};
use std::fmt::Write as _;

/// Renders a recorder as Chrome `trace_event` JSON (the "JSON Object
/// Format"): a `traceEvents` array of `"X"` complete events, one per span,
/// preceded by `"M"` thread-name metadata that maps each display track to a
/// Perfetto-visible thread. Timestamps are microseconds (`ts`/`dur`), so
/// virtual nanoseconds are divided by 1000; sub-nanosecond precision
/// survives as fractional microseconds.
///
/// ```
/// use obs::{export::chrome_trace_json, TraceRecorder};
///
/// let mut t = TraceRecorder::new(42);
/// let seg = t.open("boot", "segment", "GPU", 0.0);
/// t.leaf("ntt", "(I)NTT", "GPU", 0.0, 2000.0, vec![("limbs", 24u64.into())]);
/// t.close(seg, 2500.0, vec![]);
///
/// let json = chrome_trace_json(&t);
/// assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
/// assert!(json.contains("\"ph\":\"M\""));
/// assert!(json.contains("\"name\":\"ntt\""));
/// assert!(json.contains("\"limbs\":24"));
/// ```
pub fn chrome_trace_json(rec: &TraceRecorder) -> String {
    let mut out = String::from(CHROME_TRACE_HEADER);
    let mut first = true;

    // One metadata event per track, in first-appearance order; the tid
    // given here is what the "X" events below reference.
    let mut tracks: Vec<&'static str> = Vec::new();
    for s in rec.spans() {
        if !tracks.contains(&s.track) {
            tracks.push(s.track);
        }
    }
    for (tid, track) in tracks.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        write_meta_event(&mut out, tid, track);
    }

    for s in rec.spans() {
        if !first {
            out.push(',');
        }
        first = false;
        let tid = tracks.iter().position(|&t| t == s.track).unwrap_or(0);
        write_span_event(&mut out, s, tid);
    }

    out.push_str(CHROME_TRACE_FOOTER);
    out
}

/// The opening of the Chrome "JSON Object Format" document, shared with the
/// streaming sink so both emit the same framing.
pub(crate) const CHROME_TRACE_HEADER: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";

/// The closing of the Chrome trace document.
pub(crate) const CHROME_TRACE_FOOTER: &str = "]}";

/// Appends one `"M"` thread-name metadata event mapping `tid` to `track`.
pub(crate) fn write_meta_event(out: &mut String, tid: usize, track: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":{}}}}}",
        json_string(track)
    );
}

/// Appends one `"X"` complete event for `s` on thread `tid`.
pub(crate) fn write_span_event(out: &mut String, s: &crate::span::Span, tid: usize) {
    let ts = s.start_ns / 1000.0;
    let dur = (s.end_ns - s.start_ns).max(0.0) / 1000.0;
    let _ = write!(
        out,
        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"name\":{},\"cat\":{},\
         \"ts\":{},\"dur\":{},\"id\":\"0x{:x}\"",
        json_string(&s.name),
        json_string(s.cat),
        json_number(ts),
        json_number(dur),
        s.id.0,
    );
    out.push_str(",\"args\":{");
    if let Some(p) = s.parent {
        let _ = write!(out, "\"parent\":\"0x{:x}\"", p.0);
    }
    for (i, (k, v)) in s.args.iter().enumerate() {
        if i > 0 || s.parent.is_some() {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(k), render_arg(v));
    }
    out.push_str("}}");
}

fn render_arg(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(x) => x.to_string(),
        ArgValue::I64(x) => x.to_string(),
        ArgValue::F64(x) => json_number(*x),
        ArgValue::Bool(x) => x.to_string(),
        ArgValue::Str(x) => json_string(x),
    }
}

/// Formats an f64 as a JSON-legal number (no NaN/Inf, no `1e5` for small
/// magnitudes that Rust would already render plainly).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    // Rust's shortest-roundtrip output is JSON-compatible (it never emits
    // a bare `.5` or trailing `.`), including exponent forms like `1e20`.
    s
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;

    fn sample() -> TraceRecorder {
        let mut t = TraceRecorder::new(9);
        let seg = t.open("segment0", "segment", "GPU", 0.0);
        t.leaf(
            "HMult",
            "element-wise",
            "GPU",
            0.0,
            1500.0,
            vec![("bytes", 4096u64.into()), ("degraded", false.into())],
        );
        t.close(seg, 2000.0, vec![]);
        t.leaf("bconv", "BConv", "PIM", 2000.0, 3000.0, vec![]);
        t
    }

    #[test]
    fn emits_metadata_per_track_in_first_appearance_order() {
        let json = chrome_trace_json(&sample());
        let gpu = json.find("\"args\":{\"name\":\"GPU\"}").unwrap();
        let pim = json.find("\"args\":{\"name\":\"PIM\"}").unwrap();
        assert!(gpu < pim);
        assert!(json.contains("\"ph\":\"M\",\"pid\":0,\"tid\":0"));
        assert!(json.contains("\"ph\":\"M\",\"pid\":0,\"tid\":1"));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = chrome_trace_json(&sample());
        assert!(
            json.contains("\"ts\":0,\"dur\":1.5"),
            "1500 ns = 1.5 us: {json}"
        );
        assert!(
            json.contains("\"ts\":2,\"dur\":1"),
            "PIM span at 2 us: {json}"
        );
    }

    #[test]
    fn parent_ids_appear_in_args() {
        let t = sample();
        let seg_id = t.spans()[0].id.0;
        let json = chrome_trace_json(&t);
        assert!(json.contains(&format!("\"parent\":\"0x{seg_id:x}\"")));
    }

    #[test]
    fn output_is_reproducible() {
        assert_eq!(chrome_trace_json(&sample()), chrome_trace_json(&sample()));
    }

    #[test]
    fn strings_are_escaped() {
        let mut t = TraceRecorder::new(0);
        t.leaf("a\"b\n", "c", "GPU", 0.0, 1.0, vec![("s", "x\ty".into())]);
        let json = chrome_trace_json(&t);
        assert!(json.contains("\"name\":\"a\\\"b\\n\""));
        assert!(json.contains("\"s\":\"x\\ty\""));
    }
}
