//! Execution reports: timings, energy, breakdowns, and Gantt rendering.

use std::collections::BTreeMap;

use crate::health::BreakerTransition;
use crate::ir::Executor;

/// One bar of the execution timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct GanttSegment {
    /// Start time (ns).
    pub start_ns: f64,
    /// End time (ns).
    pub end_ns: f64,
    /// GPU or PIM.
    pub executor: Executor,
    /// Breakdown category label.
    pub class: &'static str,
    /// Human-readable op label.
    pub label: &'static str,
    /// Degraded-mode work: a wasted PIM attempt that failed its integrity
    /// check, or the GPU re-execution that replaced it.
    pub degraded: bool,
}

impl GanttSegment {
    /// Segment duration.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// The result of scheduling an op sequence.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// End-to-end latency in nanoseconds.
    pub total_ns: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// GPU-side DRAM traffic in bytes (the Fig. 4b metric).
    pub gpu_dram_bytes: u64,
    /// PIM-side internal traffic in bytes.
    pub pim_dram_bytes: u64,
    /// Modular ops executed by the PIM MMAC lanes (wasted attempts
    /// included).
    pub pim_mmac_ops: u64,
    /// ACT/PRE pairs issued by PIM kernels (wasted attempts included).
    pub pim_acts: u64,
    /// Time per breakdown category (ns), e.g. "(I)NTT", "element-wise".
    pub breakdown_ns: BTreeMap<&'static str, f64>,
    /// The timeline.
    pub segments: Vec<GanttSegment>,
    /// GPU↔PIM transitions taken.
    pub transitions: u32,
    /// PIM integrity-check failures observed (each failed attempt counts).
    pub faults_detected: u32,
    /// PIM retries taken after transient integrity failures.
    pub pim_retries: u32,
    /// Degraded-mode segments: wasted PIM attempts plus GPU re-executions.
    pub degraded_segments: u32,
    /// Kernels that exhausted their PIM attempts and re-executed on the GPU.
    pub pim_fallbacks: u32,
    /// Kernels routed straight to the GPU because their bank's circuit
    /// breaker was open (no PIM attempt was made).
    pub breaker_skips: u32,
    /// Idle time charged to the timeline by retry backoff (ns).
    pub backoff_ns: f64,
    /// Breaker state changes that occurred during this run (also appended
    /// to the attached [`crate::health::HealthRegistry`]'s log).
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Virtual time the pipelined schedule overlapped across the two
    /// streams: the serial-equivalent length (kernel time + handoffs +
    /// backoff) minus the pipelined makespan. Always 0 in serial mode.
    pub stream_overlap_ns: f64,
    /// True when the run was cancelled at a segment boundary because the
    /// scheduler's deadline budget ran out; `total_ns` is then the virtual
    /// time consumed and `segments` holds only the work actually done.
    pub cancelled: bool,
    /// GPU stream stalls injected by the fault plan (latency-only events).
    pub gpu_stalls: u32,
    /// GPU transfer bit flips injected by the fault plan. Each one also
    /// fails the end-to-end integrity verdict.
    pub gpu_faults: u32,
    /// End-to-end integrity verdict: true when a corrupted result survived
    /// to the output. PIM faults are caught by per-kernel residue checksums
    /// and retried or re-executed, so they never set this; GPU transfer
    /// flips have no per-kernel check and always do.
    pub integrity_failed: bool,
}

impl ExecutionReport {
    /// Latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns / 1e6
    }

    /// Energy-delay product in J·s (the paper's headline metric).
    pub fn edp(&self) -> f64 {
        self.energy_j * self.total_ns * 1e-9
    }

    /// Fraction of total time spent in a breakdown category.
    pub fn fraction(&self, class: &str) -> f64 {
        self.breakdown_ns
            .iter()
            .find(|(k, _)| **k == class)
            .map(|(_, v)| v / self.total_ns)
            .unwrap_or(0.0)
    }

    /// Adds a segment and updates totals/breakdown.
    pub fn push_segment(&mut self, seg: GanttSegment) {
        *self.breakdown_ns.entry(seg.class).or_insert(0.0) += seg.duration_ns();
        self.total_ns = self.total_ns.max(seg.end_ns);
        if seg.degraded {
            self.degraded_segments += 1;
        }
        self.segments.push(seg);
    }

    /// Renders an ASCII Gantt chart (Fig. 4a-style) of `width` columns.
    pub fn render_gantt(&self, width: usize) -> String {
        if self.segments.is_empty() || self.total_ns <= 0.0 {
            return String::from("(empty timeline)\n");
        }
        let scale = width as f64 / self.total_ns;
        let mut rows: BTreeMap<&'static str, Vec<char>> = BTreeMap::new();
        rows.insert("GPU", vec![' '; width]);
        rows.insert("PIM", vec![' '; width]);
        for seg in &self.segments {
            let row = match seg.executor {
                Executor::Gpu => "GPU",
                Executor::Pim => "PIM",
            };
            let glyph = match seg.class {
                "(I)NTT" => 'N',
                "BConv" => 'B',
                "element-wise" => 'e',
                "automorphism" => 'a',
                "write-back" => 'w',
                _ => '#',
            };
            let s = (seg.start_ns * scale) as usize;
            let e = ((seg.end_ns * scale) as usize).min(width);
            let cells = rows.get_mut(row).expect("row exists");
            for cell in cells.iter_mut().take(e.max(s + 1).min(width)).skip(s) {
                *cell = glyph;
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "timeline 0..{:.1} us  (N=NTT B=BConv e=elementwise a=aut w=writeback)\n",
            self.total_ns / 1e3
        ));
        for (name, cells) in rows.iter().rev() {
            out.push_str(&format!("{name} |{}|\n", cells.iter().collect::<String>()));
        }
        out
    }

    /// Time spent on each executor (GPU, PIM), from the timeline.
    pub fn executor_time_ns(&self, ex: Executor) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.executor == ex)
            .map(|s| s.duration_ns())
            .sum()
    }

    /// Lower bound on the runtime if PIM kernels overlapped perfectly with
    /// GPU kernels (the pipelining the paper deliberately does *not* build,
    /// §V-C): `max(gpu_time, pim_time)`. The paper's argument is that once
    /// element-wise ops move to PIM their share is small, so this bound is
    /// close to the sequential time — quantified by
    /// [`Self::pipelining_headroom`].
    pub fn pipelining_bound_ns(&self) -> f64 {
        let gpu = self.executor_time_ns(Executor::Gpu);
        let pim = self.executor_time_ns(Executor::Pim);
        gpu.max(pim)
    }

    /// The maximum speedup perfect GPU/PIM pipelining could add
    /// (`total / bound`); §V-C expects this to be small.
    pub fn pipelining_headroom(&self) -> f64 {
        let b = self.pipelining_bound_ns();
        if b <= 0.0 {
            1.0
        } else {
            self.total_ns / b
        }
    }

    /// A one-line textual summary.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{:.3} ms, {:.3} J, EDP {:.3e}, GPU DRAM {:.2} GB, PIM {:.2} GB, {} transitions",
            self.total_ms(),
            self.energy_j,
            self.edp(),
            self.gpu_dram_bytes as f64 / 1e9,
            self.pim_dram_bytes as f64 / 1e9,
            self.transitions
        );
        if self.faults_detected > 0 {
            line.push_str(&format!(
                ", {} fault(s) detected ({} retries, {} degraded segments)",
                self.faults_detected, self.pim_retries, self.degraded_segments
            ));
        }
        if !self.breaker_transitions.is_empty() || self.breaker_skips > 0 {
            line.push_str(&format!(
                ", {} breaker transition(s) ({} kernels routed around)",
                self.breaker_transitions.len(),
                self.breaker_skips
            ));
        }
        if self.gpu_stalls > 0 || self.gpu_faults > 0 {
            line.push_str(&format!(
                ", {} GPU stall(s), {} GPU transfer flip(s)",
                self.gpu_stalls, self.gpu_faults
            ));
        }
        if self.integrity_failed {
            line.push_str(", e2e integrity FAILED");
        }
        if self.cancelled {
            line.push_str(&format!(
                ", CANCELLED over budget after {} segment(s)",
                self.segments.len()
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(s: f64, e: f64, ex: Executor, class: &'static str) -> GanttSegment {
        GanttSegment {
            start_ns: s,
            end_ns: e,
            executor: ex,
            class,
            label: "t",
            degraded: false,
        }
    }

    #[test]
    fn degraded_segments_counted() {
        let mut r = ExecutionReport::default();
        r.push_segment(seg(0.0, 100.0, Executor::Pim, "element-wise"));
        let mut bad = seg(100.0, 150.0, Executor::Gpu, "element-wise");
        bad.degraded = true;
        r.push_segment(bad);
        assert_eq!(r.degraded_segments, 1);
        r.faults_detected = 1;
        assert!(r.summary_line().contains("1 fault(s) detected"));
    }

    #[test]
    fn totals_and_breakdown() {
        let mut r = ExecutionReport::default();
        r.push_segment(seg(0.0, 100.0, Executor::Gpu, "(I)NTT"));
        r.push_segment(seg(100.0, 300.0, Executor::Pim, "element-wise"));
        r.energy_j = 2.0;
        assert_eq!(r.total_ns, 300.0);
        assert!((r.fraction("element-wise") - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.edp() - 2.0 * 300.0e-9).abs() < 1e-18);
    }

    #[test]
    fn gantt_renders_rows() {
        let mut r = ExecutionReport::default();
        r.push_segment(seg(0.0, 50.0, Executor::Gpu, "(I)NTT"));
        r.push_segment(seg(50.0, 100.0, Executor::Pim, "element-wise"));
        let g = r.render_gantt(40);
        assert!(g.contains("GPU |"));
        assert!(g.contains("PIM |"));
        assert!(g.contains('N'));
        assert!(g.contains('e'));
    }

    #[test]
    fn pipelining_bound() {
        let mut r = ExecutionReport::default();
        r.push_segment(seg(0.0, 300.0, Executor::Gpu, "(I)NTT"));
        r.push_segment(seg(300.0, 400.0, Executor::Pim, "element-wise"));
        assert_eq!(r.pipelining_bound_ns(), 300.0);
        assert!((r.pipelining_headroom() - 400.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline() {
        let r = ExecutionReport::default();
        assert_eq!(r.render_gantt(10), "(empty timeline)\n");
        assert_eq!(r.fraction("anything"), 0.0);
    }
}
