//! `obs` — the vendored, zero-dependency observability subsystem.
//!
//! The paper's argument is quantitative — element-wise kernels are
//! bandwidth-bound while (I)NTT/BConv are compute-bound (§IV), and the PIM
//! win is argued bytes-moved-by-bytes-moved — so the reproduction needs to
//! show *where* virtual time and DRAM traffic go inside a run, not just
//! end-to-end aggregates. This crate provides the three pieces every layer
//! above records into:
//!
//! - [`span`] — hierarchical spans stamped in the **virtual-time domain**
//!   of the scheduler (segment → kernel). Span ids come from a seeded
//!   SplitMix64 stream, never a wall clock or thread id, so two runs of
//!   the same workload produce byte-identical traces regardless of
//!   `ANAHEIM_THREADS`.
//! - [`metrics`] — a [`MetricsRegistry`] of typed counters, gauges, and
//!   fixed-bucket histograms keyed by (name, sorted labels). All storage is
//!   `BTreeMap`-ordered, so rendering is deterministic.
//! - [`export`] — two renderers: Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]) and Chrome `trace_event`
//!   JSON ([`export::chrome_trace_json`]) that loads directly in
//!   Perfetto / `chrome://tracing`.
//! - [`stream`] — a bounded [`StreamingTraceSink`] (rolling ring of recent
//!   spans + incremental Chrome-trace writing) so arbitrarily long runs —
//!   the million-request chaos soak — keep trace memory constant.
//!
//! The crate is dependency-free and knows nothing about FHE: the metric
//! and span *names* used by the Anaheim stack are catalogued in
//! `docs/METRICS.md`, and the glue lives in `anaheim_core::telemetry`.
//!
//! # Determinism contract
//!
//! Everything here is plain data plus arithmetic: no wall clock, no thread
//! identity, no randomness beyond the caller-provided span-id seed. A
//! recorder fed the same sequence of calls produces the same bytes from
//! both exporters. The layers above uphold their half of the contract by
//! only recording from serial (virtual-time-ordered) code paths.

pub mod export;
pub mod metrics;
pub mod span;
pub mod stream;

pub use metrics::{Histogram, MetricKind, MetricsRegistry};
pub use span::{ArgValue, Span, SpanId, TraceRecorder};
pub use stream::StreamingTraceSink;
