//! Hierarchical virtual-time spans.
//!
//! A [`TraceRecorder`] is an append-only list of [`Span`]s plus an open-span
//! stack. The recorder never looks at a wall clock: every timestamp is a
//! virtual-time nanosecond value supplied by the caller (the scheduler's
//! `now`, the serving layer's lane clock), offset by a caller-controlled
//! base so that spans from consecutive runs line up on one global timeline.
//!
//! Span ids are drawn from a seeded SplitMix64 stream keyed on the span's
//! sequence number — stable across runs and thread counts, and useful as a
//! correlation key in exported traces.

/// A span identifier: deterministic, derived from (recorder seed, sequence
/// number). Never a pointer, wall-clock, or thread-derived value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// A typed span/argument value, kept closed so exporters can render every
/// variant deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer payload (byte counts, op counts).
    U64(u64),
    /// Signed integer payload.
    I64(i64),
    /// Floating payload (durations, fractions).
    F64(f64),
    /// Boolean flag (e.g. `bandwidth_bound`, `degraded`).
    Bool(bool),
    /// Short string payload (instruction mnemonics, outcome labels).
    Str(&'static str),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

/// One recorded span on the virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Seeded deterministic id.
    pub id: SpanId,
    /// Enclosing span at the time this one was recorded, if any.
    pub parent: Option<SpanId>,
    /// Human-readable name (op label, request label, segment name).
    pub name: String,
    /// Category — the kernel-class vocabulary of the scheduler
    /// (`"(I)NTT"`, `"element-wise"`, …) or a layer name (`"serving"`).
    pub cat: &'static str,
    /// Display track (Perfetto thread): `"GPU"`, `"PIM"`, `"serving"`, …
    pub track: &'static str,
    /// Start, in virtual nanoseconds (base-offset applied).
    pub start_ns: f64,
    /// End, in virtual nanoseconds (base-offset applied).
    pub end_ns: f64,
    /// Typed key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// Span duration in virtual nanoseconds.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic span recorder: an append-only span list plus a stack of
/// open spans that establishes parent/child structure.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    seed: u64,
    next_seq: u64,
    base_ns: f64,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, outermost first.
    stack: Vec<usize>,
}

impl TraceRecorder {
    /// A recorder whose span ids are drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the virtual-time base added to every subsequent timestamp.
    /// Callers running several virtual-time-zero schedules back to back
    /// (workload segments, serving requests) bump this so the exported
    /// timeline is globally ordered.
    pub fn set_base_ns(&mut self, base_ns: f64) {
        self.base_ns = base_ns;
    }

    /// The current virtual-time base.
    pub fn base_ns(&self) -> f64 {
        self.base_ns
    }

    fn next_id(&mut self) -> SpanId {
        let id = SpanId(splitmix64(
            self.seed
                .wrapping_add(self.next_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ));
        self.next_seq += 1;
        id
    }

    fn current_parent(&self) -> Option<SpanId> {
        self.stack.last().map(|&i| self.spans[i].id)
    }

    /// Opens a span at virtual time `start_ns` (base applied) and makes it
    /// the parent of spans recorded until it is closed.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        track: &'static str,
        start_ns: f64,
    ) -> SpanId {
        let id = self.next_id();
        let parent = self.current_parent();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            cat,
            track,
            start_ns: self.base_ns + start_ns,
            end_ns: f64::NAN,
            args: Vec::new(),
        });
        self.stack.push(self.spans.len() - 1);
        id
    }

    /// Closes the innermost open span, which must be `id`, at virtual time
    /// `end_ns` (base applied), giving it `args` in order (an open span
    /// has none before it closes).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span — mis-nested spans are
    /// a recording bug, not a runtime condition.
    pub fn close(&mut self, id: SpanId, end_ns: f64, args: Vec<(&'static str, ArgValue)>) {
        let idx = self.stack.pop().expect("close without an open span");
        let span = &mut self.spans[idx];
        assert_eq!(span.id, id, "spans must close innermost-first");
        span.end_ns = self.base_ns + end_ns;
        span.args = args;
    }

    /// Records a complete (leaf) span under the currently open span.
    pub fn leaf(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        track: &'static str,
        start_ns: f64,
        end_ns: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanId {
        let id = self.next_id();
        let parent = self.current_parent();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            cat,
            track,
            start_ns: self.base_ns + start_ns,
            end_ns: self.base_ns + end_ns,
            args,
        });
        id
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Removes and returns every *completed* span, leaving open spans (and
    /// the id stream, seed, and base) untouched — the hand-off point for a
    /// streaming sink that bounds recorder memory over long runs. Spans
    /// recorded before the outermost still-open span are drained; the open
    /// tail stays so parent/child structure keeps working.
    pub fn drain_completed(&mut self) -> Vec<Span> {
        let keep_from = self.stack.first().copied().unwrap_or(self.spans.len());
        let drained: Vec<Span> = self.spans.drain(..keep_from).collect();
        for idx in &mut self.stack {
            *idx -= keep_from;
        }
        drained
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans still open (should be 0 at export time).
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_establishes_parents() {
        let mut t = TraceRecorder::new(1);
        let a = t.open("segment", "segment", "GPU", 0.0);
        let b = t.leaf("kernel", "(I)NTT", "GPU", 0.0, 5.0, vec![]);
        t.close(a, 10.0, vec![]);
        let c = t.leaf("after", "element-wise", "GPU", 10.0, 12.0, vec![]);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id, a);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].id, b);
        assert_eq!(spans[1].parent, Some(a));
        assert_eq!(spans[2].id, c);
        assert_eq!(spans[2].parent, None);
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn ids_are_seeded_and_reproducible() {
        let run = |seed| {
            let mut t = TraceRecorder::new(seed);
            let a = t.open("x", "c", "GPU", 0.0);
            t.close(a, 1.0, vec![]);
            let b = t.leaf("y", "c", "GPU", 1.0, 2.0, vec![]);
            (a, b)
        };
        assert_eq!(run(7), run(7), "same seed, same ids");
        assert_ne!(run(7).0, run(8).0, "different seed, different ids");
    }

    #[test]
    fn base_offsets_timestamps() {
        let mut t = TraceRecorder::new(0);
        t.set_base_ns(1000.0);
        let id = t.leaf("k", "c", "PIM", 5.0, 7.0, vec![]);
        let s = &t.spans()[0];
        assert_eq!(s.id, id);
        assert_eq!(s.start_ns, 1005.0);
        assert_eq!(s.end_ns, 1007.0);
        assert_eq!(s.duration_ns(), 2.0);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn misnested_close_panics() {
        let mut t = TraceRecorder::new(0);
        let a = t.open("a", "c", "GPU", 0.0);
        let _b = t.open("b", "c", "GPU", 0.0);
        t.close(a, 1.0, vec![]);
    }

    #[test]
    fn drain_completed_preserves_open_spans_and_id_stream() {
        let mut t = TraceRecorder::new(5);
        // Reference run: ids with no draining.
        let mut r = TraceRecorder::new(5);
        let ids: Vec<SpanId> = (0..4)
            .map(|i| r.leaf("k", "c", "GPU", i as f64, i as f64, vec![]))
            .collect();

        let a = t.leaf("k", "c", "GPU", 0.0, 0.0, vec![]);
        assert_eq!(a, ids[0]);
        let drained = t.drain_completed();
        assert_eq!(drained.len(), 1);
        assert!(t.is_empty());
        // The id stream continues where it left off.
        let seg = t.open("seg", "segment", "GPU", 1.0);
        assert_eq!(seg, ids[1]);
        let child = t.leaf("k", "c", "GPU", 1.0, 1.0, vec![]);
        assert_eq!(child, ids[2]);
        // Draining with an open span keeps the open tail (and its child,
        // recorded after it) in place.
        let drained = t.drain_completed();
        assert!(drained.is_empty(), "nothing before the open span");
        assert_eq!(t.len(), 2);
        t.close(seg, 2.0, vec![]);
        let after = t.leaf("k", "c", "GPU", 2.0, 2.0, vec![]);
        assert_eq!(after, ids[3]);
        assert_eq!(t.drain_completed().len(), 3);
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn close_attaches_args_in_order() {
        let mut t = TraceRecorder::new(0);
        let id = t.open("seg", "segment", "serving", 0.0);
        t.close(
            id,
            1.0,
            vec![
                ("deadline_ns", 7u64.into()),
                ("outcome", "completed".into()),
            ],
        );
        let s = &t.spans()[0];
        assert_eq!(s.end_ns, 1.0);
        assert_eq!(
            s.args,
            vec![
                ("deadline_ns", ArgValue::U64(7)),
                ("outcome", ArgValue::Str("completed")),
            ]
        );
    }
}
