//! Deterministic observability glue: the [`Telemetry`] sink the scheduler,
//! serving layer, and workload runner record into.
//!
//! A `Telemetry` bundles an `obs` [`TraceRecorder`] (hierarchical spans in
//! the scheduler's virtual-time domain: segment → kernel) with a
//! [`MetricsRegistry`] (the counters/gauges/histograms catalogued in
//! `docs/METRICS.md`). Every recording site is reached only from serial,
//! virtual-time-ordered code — the scheduler loop and the serving dispatch
//! lane — so two runs of the same workload produce byte-identical exports
//! regardless of `ANAHEIM_THREADS`. Span ids come from the recorder's
//! seeded SplitMix64 stream, never a wall clock or thread id.
//!
//! Tracing is strictly opt-in: the scheduler takes the sink as
//! [`RunOptions::telemetry`](crate::schedule::RunOptions::telemetry), an
//! `Option<&mut Telemetry>` that is `None` by default, so the disabled path
//! costs one branch per recording site and allocates nothing.

use obs::{ArgValue, MetricsRegistry, SpanId, TraceRecorder};

use crate::health::{BreakerTransition, HealthSnapshot};
use crate::ir::Executor;
use crate::report::{ExecutionReport, GanttSegment};

/// Metric names recorded by the scheduler and exporters, kept as constants
/// so the code, the tests, and `docs/METRICS.md` cannot drift apart.
pub mod names {
    /// Kernels executed, by `executor` (gpu/pim) and `class`.
    pub const KERNELS_TOTAL: &str = "anaheim_kernels_total";
    /// Per-kernel virtual duration histogram, by `executor` and `class`.
    pub const KERNEL_NS: &str = "anaheim_kernel_ns";
    /// Bytes moved over the GPU's HBM interface (post-L2 DRAM traffic).
    pub const HBM_BYTES: &str = "anaheim_hbm_bytes_total";
    /// Bytes streamed bank ↔ PIM unit, never crossing the external bus.
    pub const PIM_INTERNAL_BYTES: &str = "anaheim_pim_internal_bytes_total";
    /// Modular ops executed by the PIM MMAC lanes.
    pub const PIM_MMAC_OPS: &str = "anaheim_pim_mmac_ops_total";
    /// ACT/PRE pairs issued by PIM kernels.
    pub const PIM_ACTS: &str = "anaheim_pim_acts_total";
    /// GPU↔PIM stream handoffs.
    pub const TRANSITIONS: &str = "anaheim_transitions_total";
    /// Integrity-check failures observed on the PIM path.
    pub const FAULTS: &str = "anaheim_faults_detected_total";
    /// PIM retries taken after transient failures.
    pub const RETRIES: &str = "anaheim_pim_retries_total";
    /// Kernels re-executed on the GPU after exhausting PIM attempts.
    pub const FALLBACKS: &str = "anaheim_pim_fallbacks_total";
    /// Kernels routed straight to the GPU by an open breaker.
    pub const BREAKER_SKIPS: &str = "anaheim_breaker_skips_total";
    /// Breaker state changes, by destination state (`to`).
    pub const BREAKER_TRANSITIONS: &str = "anaheim_breaker_transitions_total";
    /// Retry backoff charged to the timeline (gauge, ns).
    pub const BACKOFF_NS: &str = "anaheim_backoff_ns";
    /// Virtual time at the end of the last run (gauge, ns).
    pub const VIRTUAL_TIME_NS: &str = "anaheim_virtual_time_ns";
    /// Energy accumulated across runs (gauge, J).
    pub const ENERGY_J: &str = "anaheim_energy_joules";
    /// Per-bank breaker state (0 closed, 1 half-open, 2 open), by `bank`.
    pub const BANK_STATE: &str = "anaheim_bank_state";
    /// Per-bank breaker trips, by `bank`.
    pub const BANK_TRIPS: &str = "anaheim_bank_trips_total";
    /// High-water mark of the serving admission queue.
    pub const QUEUE_DEPTH_MAX: &str = "anaheim_queue_depth_max";
    /// Serving lifecycle events, by `event` (submitted/completed/…).
    pub const SERVING_EVENTS: &str = "anaheim_serving_events_total";
    /// Slack (deadline − finish) of completed requests (histogram, ns).
    pub const DEADLINE_SLACK_NS: &str = "anaheim_deadline_slack_ns";
    /// End-to-end latency of completed requests (histogram, ns).
    pub const REQUEST_LATENCY_NS: &str = "anaheim_request_latency_ns";
    /// FN-level CKKS op counts in limbs, by `op` (exported by
    /// `ckks::opcount::OpCounts::export`).
    pub const FN_OP_LIMBS: &str = "anaheim_fn_op_limbs";
    /// Per-shard state (0 up, 1 draining, 2 cooling, 3 probation), by
    /// `shard`.
    pub const SHARD_STATE: &str = "anaheim_shard_state";
    /// Shard lifecycle events, by `shard` and `event`
    /// (rerouted-in/drains/readmits/probe-failures).
    pub const SHARD_EVENTS: &str = "anaheim_shard_events_total";
    /// Pipelined-mode stream segments scheduled, by `stream` (gpu/pim).
    pub const STREAM_SEGMENTS: &str = "anaheim_stream_segments_total";
    /// Virtual time the pipelined schedule overlapped across the two
    /// streams in the last run (gauge, ns).
    pub const STREAM_OVERLAP_NS: &str = "anaheim_stream_overlap_ns";
    /// Hedged re-executions, by `result` (launched/won/wasted/suppressed).
    pub const HEDGES: &str = "anaheim_hedges_total";
    /// Requests cancelled mid-flight when their deadline budget ran out.
    pub const CANCELLED_OVER_BUDGET: &str = "anaheim_cancelled_over_budget_total";
    /// Requests whose end-to-end integrity verdict failed.
    pub const E2E_INTEGRITY_FAILURES: &str = "anaheim_e2e_integrity_failures_total";
    /// Evaluation-key bytes served from the evk working set (batch-amortized
    /// fetches the tenant's earlier request already paid for).
    pub const EVK_CACHE_HIT_BYTES: &str = "anaheim_evk_cache_hit_bytes_total";
    /// Evaluation-key bytes fetched from DRAM (cold fetches at batch heads).
    pub const EVK_CACHE_MISS_BYTES: &str = "anaheim_evk_cache_miss_bytes_total";
    /// Requests per closed same-tenant dispatch batch (histogram).
    pub const BATCH_SIZE: &str = "anaheim_batch_size";
    /// Same-tenant requests pulled forward past strangers at dispatch
    /// (slack-bounded batch-aware ordering).
    pub const REORDERS: &str = "anaheim_reorders_total";
    /// Reorder candidates denied because a bypassed request's slack
    /// budget (or the K-bypass bound) would have been exceeded.
    pub const REORDER_DENIED_SLACK: &str = "anaheim_reorder_denied_slack_total";
    /// Completed requests that missed their deadline (overran into
    /// negative slack; the slack histogram records them as 0).
    pub const DEADLINE_OVERRUNS: &str = "anaheim_deadline_overruns_total";
    /// Virtual nanoseconds credited back to dispatch lanes by evk-fetch
    /// amortization in the last run (gauge; bytes saved priced at DRAM
    /// bandwidth).
    pub const EVK_SAVED_NS: &str = "anaheim_evk_saved_ns";
}

/// Deadline-slack / latency bucket bounds: 1 µs … 10 s in decades.
const SLACK_BOUNDS: &[f64] = &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// Batch-size bucket bounds: powers of two up to the widest batch a
/// same-tenant run plausibly reaches before the stream interleaves. The
/// 64 bound exists so runs longer than 32 — exactly what batch-aware
/// ordering produces — land in a labeled bucket instead of vanishing
/// into the implicit `+Inf` overflow slot.
const BATCH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Display-track names for replica shards (`"shard-0"` …). Span tracks are
/// `&'static str`, so the table is static; fleets wider than the table wrap
/// modulo its length (tracks are a display concern, not an identity).
const SHARD_TRACKS: [&str; 16] = [
    "shard-0", "shard-1", "shard-2", "shard-3", "shard-4", "shard-5", "shard-6", "shard-7",
    "shard-8", "shard-9", "shard-10", "shard-11", "shard-12", "shard-13", "shard-14", "shard-15",
];

/// The display track for replica shard `shard` (`"shard-3"` for shard 3;
/// shards past 15 wrap onto the 16-entry static table).
pub fn shard_track(shard: u32) -> &'static str {
    SHARD_TRACKS[shard as usize % SHARD_TRACKS.len()]
}

/// The recording sink: one trace recorder plus one metrics registry.
///
/// Layers record through the typed hooks below (the scheduler) or directly
/// into the public fields (serving, workloads, benches) using the names in
/// [`names`].
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The virtual-time span recorder.
    pub trace: TraceRecorder,
    /// The typed metrics registry.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// A telemetry sink whose span ids are seeded with `seed`, with the
    /// full Anaheim metric catalogue described up front.
    pub fn new(seed: u64) -> Self {
        let mut metrics = MetricsRegistry::new();
        metrics.describe_counter(
            names::KERNELS_TOTAL,
            "Kernels executed, by executor and class",
            "kernels",
        );
        metrics.describe_histogram(
            names::KERNEL_NS,
            "Per-kernel virtual duration",
            "ns",
            obs::metrics::DEFAULT_NS_BOUNDS,
        );
        metrics.describe_counter(
            names::HBM_BYTES,
            "Bytes moved over the GPU HBM interface (post-L2)",
            "bytes",
        );
        metrics.describe_counter(
            names::PIM_INTERNAL_BYTES,
            "Bytes streamed bank-to-PIM-unit, internal to the stack",
            "bytes",
        );
        metrics.describe_counter(
            names::PIM_MMAC_OPS,
            "Modular ops executed by PIM MMAC lanes",
            "ops",
        );
        metrics.describe_counter(
            names::PIM_ACTS,
            "ACT/PRE pairs issued by PIM kernels",
            "acts",
        );
        metrics.describe_counter(names::TRANSITIONS, "GPU-PIM stream handoffs", "handoffs");
        metrics.describe_counter(
            names::FAULTS,
            "Integrity-check failures on the PIM path",
            "faults",
        );
        metrics.describe_counter(
            names::RETRIES,
            "PIM retries after transient failures",
            "retries",
        );
        metrics.describe_counter(
            names::FALLBACKS,
            "Kernels re-executed on the GPU after exhausting PIM attempts",
            "kernels",
        );
        metrics.describe_counter(
            names::BREAKER_SKIPS,
            "Kernels routed straight to the GPU by an open breaker",
            "kernels",
        );
        metrics.describe_counter(
            names::BREAKER_TRANSITIONS,
            "Breaker state changes, by destination state",
            "transitions",
        );
        metrics.describe_gauge(
            names::BACKOFF_NS,
            "Retry backoff charged to the timeline",
            "ns",
        );
        metrics.describe_gauge(
            names::VIRTUAL_TIME_NS,
            "Virtual time at the end of the last run",
            "ns",
        );
        metrics.describe_gauge(names::ENERGY_J, "Energy accumulated across runs", "J");
        metrics.describe_gauge(
            names::BANK_STATE,
            "Breaker state per bank domain (0 closed, 1 half-open, 2 open)",
            "state",
        );
        metrics.describe_counter(names::BANK_TRIPS, "Breaker trips per bank domain", "trips");
        metrics.describe_gauge(
            names::QUEUE_DEPTH_MAX,
            "High-water mark of the serving admission queue",
            "requests",
        );
        metrics.describe_counter(
            names::SERVING_EVENTS,
            "Serving lifecycle events, by event",
            "requests",
        );
        metrics.describe_histogram(
            names::DEADLINE_SLACK_NS,
            "Slack (deadline minus finish) of completed requests",
            "ns",
            SLACK_BOUNDS,
        );
        metrics.describe_histogram(
            names::REQUEST_LATENCY_NS,
            "End-to-end latency of completed requests",
            "ns",
            SLACK_BOUNDS,
        );
        metrics.describe_gauge(
            names::FN_OP_LIMBS,
            "FN-level CKKS op counts in limbs, by op",
            "limbs",
        );
        metrics.describe_gauge(
            names::SHARD_STATE,
            "Replica shard state (0 up, 1 draining, 2 cooling, 3 probation)",
            "state",
        );
        metrics.describe_counter(
            names::SHARD_EVENTS,
            "Shard lifecycle events, by shard and event",
            "events",
        );
        metrics.describe_counter(
            names::STREAM_SEGMENTS,
            "Pipelined-mode stream segments scheduled, by stream",
            "segments",
        );
        metrics.describe_gauge(
            names::STREAM_OVERLAP_NS,
            "Virtual time overlapped across the GPU/PIM streams in the last run",
            "ns",
        );
        metrics.describe_counter(names::HEDGES, "Hedged re-executions, by result", "requests");
        metrics.describe_counter(
            names::CANCELLED_OVER_BUDGET,
            "Requests cancelled mid-flight when their deadline budget ran out",
            "requests",
        );
        metrics.describe_counter(
            names::E2E_INTEGRITY_FAILURES,
            "Requests whose end-to-end integrity verdict failed",
            "requests",
        );
        metrics.describe_counter(
            names::EVK_CACHE_HIT_BYTES,
            "Evaluation-key bytes amortized by same-tenant batching",
            "bytes",
        );
        metrics.describe_counter(
            names::EVK_CACHE_MISS_BYTES,
            "Evaluation-key bytes fetched cold at batch heads",
            "bytes",
        );
        metrics.describe_histogram(
            names::BATCH_SIZE,
            "Requests per closed same-tenant dispatch batch",
            "requests",
            BATCH_BOUNDS,
        );
        metrics.describe_counter(
            names::REORDERS,
            "Same-tenant requests pulled forward past strangers at dispatch",
            "requests",
        );
        metrics.describe_counter(
            names::REORDER_DENIED_SLACK,
            "Reorder candidates denied by a bypassed request's slack budget",
            "requests",
        );
        metrics.describe_counter(
            names::DEADLINE_OVERRUNS,
            "Completed requests that missed their deadline",
            "requests",
        );
        metrics.describe_gauge(
            names::EVK_SAVED_NS,
            "Virtual ns credited to dispatch lanes by evk-fetch amortization",
            "ns",
        );
        Self {
            trace: TraceRecorder::new(seed),
            metrics,
        }
    }

    /// Sets the virtual-time base for subsequent spans (mirrors
    /// `HealthRegistry::set_base_ns`; the serving layer sets both to each
    /// request's start time so the exported timeline is globally ordered).
    pub fn set_base_ns(&mut self, base_ns: f64) {
        self.trace.set_base_ns(base_ns);
    }

    /// Renders the trace as Chrome `trace_event` JSON (Perfetto-loadable).
    pub fn chrome_trace(&self) -> String {
        obs::export::chrome_trace_json(&self.trace)
    }

    /// Renders the metrics in the Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        self.metrics.render_prometheus()
    }

    /// Opens a segment-level span (workload segments, serving requests).
    pub fn open_segment(
        &mut self,
        name: impl Into<String>,
        track: &'static str,
        start_ns: f64,
    ) -> SpanId {
        self.trace.open(name, "segment", track, start_ns)
    }

    /// Closes a segment span opened with [`Self::open_segment`], appending
    /// `args` in order.
    pub fn close_segment(&mut self, id: SpanId, end_ns: f64, args: Vec<(&'static str, ArgValue)>) {
        self.trace.close(id, end_ns, args);
    }

    /// Records one kernel attempt as a leaf span named by the segment's
    /// label, in its class, on its executor's track (`GPU` or `PIM`). Its
    /// count, duration and bytes are folded from the report in
    /// [`Self::run_complete`].
    pub fn kernel(&mut self, seg: &GanttSegment, args: Vec<(&'static str, ArgValue)>) {
        let track = match seg.executor {
            Executor::Gpu => "GPU",
            Executor::Pim => "PIM",
        };
        self.trace
            .leaf(seg.label, seg.class, track, seg.start_ns, seg.end_ns, args);
    }

    /// Records one GPU↔PIM stream handoff span.
    pub fn transition(&mut self, start_ns: f64, end_ns: f64) {
        self.trace
            .leaf("handoff", "transition", "stream", start_ns, end_ns, vec![]);
    }

    /// Records retry backoff charged to the timeline.
    pub fn backoff(&mut self, start_ns: f64, end_ns: f64) {
        self.trace
            .leaf("backoff", "backoff", "PIM", start_ns, end_ns, vec![]);
        // Per event: a float summed across runs; folding it per run would
        // regroup the additions and move the last bits.
        self.metrics
            .add_gauge(names::BACKOFF_NS, &[], end_ns - start_ns);
    }

    /// Records a breaker state change: a zero-width marker span on the
    /// `health` track at local scheduler time `local_now_ns`.
    pub fn breaker_transition(&mut self, t: &BreakerTransition, local_now_ns: f64) {
        self.trace.leaf(
            format!("bank{} {}\u{2192}{}", t.bank, t.from, t.to),
            "breaker",
            "health",
            local_now_ns,
            local_now_ns,
            vec![("cause", t.cause.into())],
        );
    }

    /// Records one pipelined-mode stream segment: a span on the stream's
    /// own telemetry track (`gpu-stream`/`pim-stream`) annotated with how
    /// far it slid left relative to a serial handoff schedule, plus the
    /// per-stream segment counter (per event: the report does not hold
    /// stream segments).
    #[allow(clippy::too_many_arguments)]
    pub fn stream_segment(
        &mut self,
        stream: &'static str,
        index: u32,
        start_ns: f64,
        end_ns: f64,
        ops: u32,
        slide_ns: f64,
    ) {
        let track: &'static str = match stream {
            "gpu" => "gpu-stream",
            _ => "pim-stream",
        };
        self.trace.leaf(
            format!("segment {index}"),
            "stream-segment",
            track,
            start_ns,
            end_ns,
            vec![
                ("ops", u64::from(ops).into()),
                ("slide_ns", slide_ns.into()),
            ],
        );
        self.metrics
            .inc(names::STREAM_SEGMENTS, &[("stream", stream)], 1);
    }

    /// Records the stream-overlap gauge after a pipelined run. Called only
    /// from the pipelined scheduler path so serial-mode exports stay
    /// byte-identical to previous releases (describing a metric renders
    /// nothing until a series exists).
    pub fn stream_overlap(&mut self, overlap_ns: f64) {
        self.metrics
            .set_gauge(names::STREAM_OVERLAP_NS, &[], overlap_ns);
    }

    /// Records a completed scheduler run. Every scheduler series whose
    /// exact value the report holds is folded here, once per run: kernel
    /// counts and durations from `report.segments` (observed in segment
    /// order, so each histogram sum adds in the order the kernels ran),
    /// HBM and PIM-internal bytes, PIM MMAC ops and ACTs, handoffs,
    /// faults, retries, fallbacks, breaker skips and breaker transitions. A
    /// series appears exactly when recording each event would have created
    /// it. A run that returns `Err` never gets here, so it records none of
    /// these for the work it did before failing.
    pub fn run_complete(&mut self, report: &ExecutionReport) {
        let mut kinds: Vec<(Executor, &'static str)> = Vec::new();
        for s in &report.segments {
            if !kinds.contains(&(s.executor, s.class)) {
                kinds.push((s.executor, s.class));
            }
        }
        for &(executor, class) in &kinds {
            let labels = [("executor", executor.name()), ("class", class)];
            let ns = report
                .segments
                .iter()
                .filter(|s| s.executor == executor && s.class == class)
                .map(GanttSegment::duration_ns);
            let n = self.metrics.observe_all(names::KERNEL_NS, &labels, ns);
            self.metrics.inc(names::KERNELS_TOTAL, &labels, n);
        }
        let ran_on = |e: Executor| kinds.iter().any(|k| k.0 == e);
        if ran_on(Executor::Gpu) {
            let bytes = report.gpu_dram_bytes;
            self.metrics.inc(names::HBM_BYTES, &[], bytes);
        }
        if ran_on(Executor::Pim) {
            for (name, n) in [
                (names::PIM_INTERNAL_BYTES, report.pim_dram_bytes),
                (names::PIM_MMAC_OPS, report.pim_mmac_ops),
                (names::PIM_ACTS, report.pim_acts),
            ] {
                self.metrics.inc(name, &[], n);
            }
        }
        for (name, n) in [
            (names::TRANSITIONS, report.transitions),
            (names::FAULTS, report.faults_detected),
            (names::RETRIES, report.pim_retries),
            (names::FALLBACKS, report.pim_fallbacks),
            (names::BREAKER_SKIPS, report.breaker_skips),
        ] {
            if n > 0 {
                self.metrics.inc(name, &[], u64::from(n));
            }
        }
        for t in &report.breaker_transitions {
            self.metrics
                .inc(names::BREAKER_TRANSITIONS, &[("to", &t.to.to_string())], 1);
        }
        self.metrics.set_gauge(
            names::VIRTUAL_TIME_NS,
            &[],
            self.trace.base_ns() + report.total_ns,
        );
        self.metrics
            .add_gauge(names::ENERGY_J, &[], report.energy_j);
    }

    /// Exports a [`HealthSnapshot`] idempotently (absolute sets, no
    /// increments), so re-exporting after every request converges on the
    /// final state instead of double counting.
    pub fn export_health(&mut self, snap: &HealthSnapshot) {
        for b in &snap.banks {
            let bank = b.bank.to_string();
            let state = match b.state {
                crate::health::BreakerState::Closed => 0.0,
                crate::health::BreakerState::HalfOpen => 1.0,
                crate::health::BreakerState::Open => 2.0,
            };
            self.metrics
                .set_gauge(names::BANK_STATE, &[("bank", &bank)], state);
            self.metrics
                .set_counter(names::BANK_TRIPS, &[("bank", &bank)], b.trips as u64);
        }
        let c = &snap.counters;
        for (event, v) in [
            ("submitted", c.submitted),
            ("completed", c.completed),
            ("deadline-miss", c.deadline_misses),
            ("shed-queue-full", c.shed_queue_full),
            ("shed-infeasible", c.shed_infeasible),
            ("probes", c.probes),
            ("probe-failures", c.probe_failures),
        ] {
            self.metrics
                .set_counter(names::SERVING_EVENTS, &[("event", event)], v);
        }
        self.metrics
            .set_gauge(names::QUEUE_DEPTH_MAX, &[], c.max_queue_depth as f64);
        // Guarded: only materialize the hardening counters once they fire,
        // so exports from budget-free, fault-free runs stay byte-identical
        // to previous releases.
        if c.cancelled_over_budget > 0 {
            self.metrics
                .set_counter(names::CANCELLED_OVER_BUDGET, &[], c.cancelled_over_budget);
        }
        if c.integrity_failures > 0 {
            self.metrics
                .set_counter(names::E2E_INTEGRITY_FAILURES, &[], c.integrity_failures);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_described_up_front() {
        let t = Telemetry::new(1);
        let text = t.metrics.render_prometheus();
        // Descriptions alone render nothing until a series exists.
        assert!(text.is_empty());
        let mut t = Telemetry::new(1);
        t.metrics.inc(names::TRANSITIONS, &[], 1);
        let text = t.metrics.render_prometheus();
        assert!(text.contains("# HELP anaheim_transitions_total"));
        assert!(text.contains("# TYPE anaheim_transitions_total counter"));
    }

    #[test]
    fn pim_attempt_records_one_span_and_counts_at_run_complete() {
        let mut t = Telemetry::new(3);
        let seg = GanttSegment {
            start_ns: 100.0,
            end_ns: 500.0,
            executor: Executor::Pim,
            class: "element-wise",
            label: "PAccum",
            degraded: false,
        };
        let args = vec![
            ("bytes_internal", 1024u64.into()),
            ("mmac_ops", 99u64.into()),
            ("degraded", false.into()),
            ("limb_batches", 4u64.into()),
        ];
        t.kernel(&seg, args.clone());
        assert_eq!(t.trace.len(), 1, "one span per attempt, no children");
        let span = &t.trace.spans()[0];
        assert_eq!(
            (span.name.as_str(), span.cat, span.track),
            ("PAccum", "element-wise", "PIM")
        );
        assert_eq!((span.start_ns, span.end_ns), (100.0, 500.0));
        assert_eq!(span.args, args);
        // Counts, bytes, MMAC ops and ACTs wait for the run's report.
        let pim = [("executor", "pim"), ("class", "element-wise")];
        assert_eq!(t.metrics.counter_value(names::KERNELS_TOTAL, &pim), 0);
        assert!(!t.prometheus().contains(names::PIM_MMAC_OPS));
        let mut report = ExecutionReport {
            pim_mmac_ops: 99,
            pim_acts: 12,
            ..ExecutionReport::default()
        };
        report.push_segment(seg);
        t.run_complete(&report);
        assert_eq!(t.metrics.counter_value(names::KERNELS_TOTAL, &pim), 1);
        assert_eq!(t.metrics.counter_value(names::PIM_MMAC_OPS, &[]), 99);
        assert_eq!(t.metrics.counter_value(names::PIM_ACTS, &[]), 12);
    }

    #[test]
    fn shard_tracks_are_stable_and_wrap() {
        assert_eq!(shard_track(0), "shard-0");
        assert_eq!(shard_track(15), "shard-15");
        assert_eq!(shard_track(16), "shard-0");
        assert_eq!(shard_track(35), "shard-3");
    }

    #[test]
    fn batch_size_overflow_bucket_is_labeled() {
        // A 40-long same-tenant run (longer than the old 32 top bound)
        // must land in an explicit labeled bucket, not silently in the
        // implicit `+Inf` overflow slot.
        let mut t = Telemetry::new(7);
        t.metrics.observe(names::BATCH_SIZE, &[], 40.0);
        let text = t.metrics.render_prometheus();
        assert!(
            text.contains("anaheim_batch_size_bucket{le=\"64\"} 1"),
            "40-long run must be visible under the labeled 64 bound:\n{text}"
        );
        assert!(
            text.contains("anaheim_batch_size_bucket{le=\"32\"} 0"),
            "a 40-long run is not a <=32 run:\n{text}"
        );
    }

    #[test]
    fn health_export_is_idempotent() {
        use crate::health::{BreakerConfig, HealthRegistry};
        let mut reg = HealthRegistry::new(2, BreakerConfig::default());
        reg.counters.completed = 5;
        reg.on_failure(1, true, 3.0, "stuck-lane");
        let mut t = Telemetry::new(0);
        t.export_health(&reg.snapshot());
        let once = t.prometheus();
        t.export_health(&reg.snapshot());
        assert_eq!(once, t.prometheus(), "re-export must not double count");
        assert!(once.contains("anaheim_bank_state{bank=\"1\"} 2"));
        assert!(once.contains("anaheim_serving_events_total{event=\"completed\"} 5"));
    }
}
