//! The bounded streaming trace sink.
//!
//! The buffer-everything [`TraceRecorder`] is the right tool for a single
//! workload run, but a million-request soak would grow its span list (and
//! therefore resident memory) without bound. A [`StreamingTraceSink`]
//! fixes the memory side of the contract:
//!
//! - it keeps only the most recent `capacity` spans in a ring (the "rolling
//!   tail" a post-mortem wants), evicting the oldest beyond that;
//! - optionally, it writes every span *incrementally* to a Chrome
//!   `trace_event` JSON stream as it arrives, so the full trace lands on
//!   disk while memory stays bounded;
//! - it counts everything (`accepted`, `evicted`, `written`) so a run can
//!   prove no span was silently lost.
//!
//! Determinism: the sink is plain data plus formatting, like the rest of
//! the crate. Fed the same span sequence, it produces the same ring, the
//! same counters, and the same bytes on the stream. IO errors do not
//! perturb the span accounting: the first error is latched and writing
//! stops, but `push` keeps accepting spans so virtual-time execution is
//! never entangled with filesystem state.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};

use crate::export::{write_meta_event, write_span_event, CHROME_TRACE_FOOTER, CHROME_TRACE_HEADER};
use crate::span::{Span, TraceRecorder};

/// A bounded ring of recent spans with an optional incremental
/// Chrome-trace writer.
pub struct StreamingTraceSink {
    capacity: usize,
    ring: VecDeque<Span>,
    writer: Option<Box<dyn Write>>,
    /// Tracks seen so far; the index is the Chrome `tid`. `"M"` metadata is
    /// emitted the first time a track appears (legal anywhere in the event
    /// array).
    tracks: Vec<&'static str>,
    started: bool,
    wrote_event: bool,
    finished: bool,
    accepted: u64,
    evicted: u64,
    written: u64,
    io_error: Option<io::Error>,
}

impl fmt::Debug for StreamingTraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingTraceSink")
            .field("capacity", &self.capacity)
            .field("ring_len", &self.ring.len())
            .field("has_writer", &self.writer.is_some())
            .field("accepted", &self.accepted)
            .field("evicted", &self.evicted)
            .field("written", &self.written)
            .field("io_error", &self.io_error)
            .finish()
    }
}

impl StreamingTraceSink {
    /// A ring-only sink holding the most recent `capacity` spans (at least
    /// one).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            writer: None,
            tracks: Vec::new(),
            started: false,
            wrote_event: false,
            finished: false,
            accepted: 0,
            evicted: 0,
            written: 0,
            io_error: None,
        }
    }

    /// A sink that additionally streams every span to `writer` as Chrome
    /// `trace_event` JSON. Call [`Self::finish`] to emit the closing
    /// bracket.
    pub fn with_writer(capacity: usize, writer: Box<dyn Write>) -> Self {
        Self {
            writer: Some(writer),
            ..Self::new(capacity)
        }
    }

    /// Spans accepted over the sink's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Spans evicted from the ring (still on the stream, if one is
    /// attached).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events written to the stream (excluding track metadata).
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The rolling tail: the most recent spans, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &Span> {
        self.ring.iter()
    }

    /// Number of spans currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no span has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The first IO error hit while streaming, if any. Writing stops at
    /// the first error; span accounting continues regardless.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.io_error.as_ref()
    }

    fn tid_of(&mut self, track: &'static str) -> (usize, bool) {
        match self.tracks.iter().position(|&t| t == track) {
            Some(i) => (i, false),
            None => {
                self.tracks.push(track);
                (self.tracks.len() - 1, true)
            }
        }
    }

    fn write_str(&mut self, s: &str) {
        if self.io_error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.write_all(s.as_bytes()) {
                self.io_error = Some(e);
            }
        }
    }

    /// Accepts one span: streams it (if a writer is attached and healthy)
    /// and rotates it into the ring.
    pub fn push(&mut self, span: Span) {
        self.accepted += 1;
        if self.writer.is_some() && !self.finished {
            let (tid, new_track) = self.tid_of(span.track);
            let mut buf = String::new();
            if !self.started {
                buf.push_str(CHROME_TRACE_HEADER);
                self.started = true;
            }
            if new_track {
                if self.wrote_event {
                    buf.push(',');
                }
                self.wrote_event = true;
                write_meta_event(&mut buf, tid, span.track);
            }
            if self.wrote_event {
                buf.push(',');
            }
            self.wrote_event = true;
            write_span_event(&mut buf, &span, tid);
            self.write_str(&buf);
            if self.io_error.is_none() {
                self.written += 1;
            }
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(span);
    }

    /// Drains every completed span out of `rec` into the sink — the
    /// per-request hand-off that keeps the recorder's memory bounded.
    /// Returns how many spans moved.
    pub fn drain_from(&mut self, rec: &mut TraceRecorder) -> usize {
        let spans = rec.drain_completed();
        let n = spans.len();
        for s in spans {
            self.push(s);
        }
        n
    }

    /// Closes the JSON stream (idempotent). Flushes the writer. Returns
    /// the first IO error hit over the sink's lifetime, if any — the one
    /// place stream health surfaces to the caller.
    pub fn finish(&mut self) -> io::Result<()> {
        if !self.finished {
            self.finished = true;
            if self.writer.is_some() {
                if !self.started {
                    self.write_str(CHROME_TRACE_HEADER);
                    self.started = true;
                }
                self.write_str(CHROME_TRACE_FOOTER);
            }
            if self.io_error.is_none() {
                if let Some(w) = self.writer.as_mut() {
                    if let Err(e) = w.flush() {
                        self.io_error = Some(e);
                    }
                }
            }
        }
        match &self.io_error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn span(rec: &mut TraceRecorder, name: &str, track: &'static str, t: f64) -> Span {
        rec.leaf(name, "c", track, t, t + 1.0, vec![]);
        rec.drain_completed().pop().unwrap()
    }

    /// A writer whose buffer the test can inspect after the sink owns it.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ring_bounds_memory_and_counts_evictions() {
        let mut rec = TraceRecorder::new(1);
        let mut sink = StreamingTraceSink::new(3);
        for i in 0..10 {
            let s = span(&mut rec, &format!("s{i}"), "GPU", i as f64);
            sink.push(s);
        }
        assert_eq!(sink.accepted(), 10);
        assert_eq!(sink.evicted(), 7);
        assert_eq!(sink.len(), 3);
        let names: Vec<&str> = sink.recent().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["s7", "s8", "s9"], "rolling tail keeps newest");
        assert_eq!(sink.written(), 0, "no writer attached");
    }

    #[test]
    fn incremental_stream_is_valid_chrome_trace() {
        let buf = SharedBuf::default();
        let mut rec = TraceRecorder::new(7);
        let mut sink = StreamingTraceSink::with_writer(2, Box::new(buf.clone()));
        for (i, track) in [(0, "GPU"), (1, "PIM"), (2, "GPU")] {
            let s = span(&mut rec, &format!("k{i}"), track, i as f64);
            sink.push(s);
        }
        sink.finish().unwrap();
        sink.finish().unwrap(); // idempotent
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.starts_with(CHROME_TRACE_HEADER));
        assert!(text.ends_with(CHROME_TRACE_FOOTER));
        // Track metadata appears once per track, before that track's first
        // event; all three events made it out even though the ring holds 2.
        assert_eq!(text.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(sink.written(), 3);
        assert_eq!(sink.evicted(), 1);
        // Structural sanity: it parses as balanced JSON-ish framing (no
        // trailing comma before the footer).
        assert!(!text.contains(",]"));
    }

    #[test]
    fn drain_from_moves_completed_spans() {
        let mut rec = TraceRecorder::new(3);
        let mut sink = StreamingTraceSink::new(8);
        let seg = rec.open("seg", "segment", "serving", 0.0);
        rec.leaf("k", "c", "GPU", 0.0, 1.0, vec![]);
        assert_eq!(sink.drain_from(&mut rec), 0, "open segment pins its tail");
        rec.close(seg, 2.0, vec![]);
        assert_eq!(sink.drain_from(&mut rec), 2);
        assert!(rec.is_empty());
        assert_eq!(sink.accepted(), 2);
    }

    #[test]
    fn io_error_is_latched_not_fatal() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut rec = TraceRecorder::new(1);
        let mut sink = StreamingTraceSink::with_writer(2, Box::new(Failing));
        let s = span(&mut rec, "a", "GPU", 0.0);
        sink.push(s);
        let s = span(&mut rec, "b", "GPU", 1.0);
        sink.push(s);
        assert_eq!(sink.accepted(), 2, "accounting survives the dead stream");
        assert!(sink.io_error().is_some());
        assert!(sink.finish().is_err());
    }
}
