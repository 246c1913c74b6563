//! The top-level Anaheim framework API (§V-C, Fig. 4a): bundles a GPU
//! model, an optional PIM device, and the fusion pipeline into a single
//! `run(sequence) → report` entry point — the programmer-facing layer the
//! paper describes ("programmers can write a simple high-level code, which
//! will be translated into appropriate GPU kernels, API calls, and PIM
//! kernels").

use gpu::config::{GpuConfig, LibraryProfile};
use gpu::model::GpuModel;
use pim::device::PimDeviceConfig;
use pim::fault::FaultPlan;
use pim::layout::LayoutPolicy;

use crate::error::RunError;
use crate::health::RetryPolicy;
use crate::ir::OpSequence;
use crate::passes::{fuse, offload, FusionConfig};
use crate::report::ExecutionReport;
use crate::schedule::{RunOptions, ScheduleMode, Scheduler, MAX_PIM_RETRIES};

/// A complete platform configuration.
#[derive(Debug, Clone)]
pub struct AnaheimConfig {
    /// Configuration name for reports.
    pub name: &'static str,
    /// GPU hardware.
    pub gpu: GpuConfig,
    /// FHE library profile.
    pub library: LibraryProfile,
    /// PIM device; `None` runs everything on the GPU.
    pub pim: Option<PimDeviceConfig>,
    /// PIM data layout.
    pub layout: LayoutPolicy,
    /// Fusion pipeline.
    pub fusion: FusionConfig,
    /// Fault-injection plan (`None` = fault-free): PIM faults, GPU stream
    /// stalls and GPU transfer flips, on GPU-only and PIM platforms alike.
    pub fault: Option<FaultPlan>,
    /// Retry discipline for transient PIM failures.
    pub retry: RetryPolicy,
    /// Timeline discipline: serial handoffs (the paper's design, default)
    /// or two overlapped virtual streams.
    pub schedule: ScheduleMode,
}

impl AnaheimConfig {
    /// GPU-only Cheddar baseline on A100 (the paper's primary baseline).
    pub fn a100_baseline() -> Self {
        Self {
            name: "A100 (GPU only)",
            gpu: GpuConfig::a100_80gb(),
            library: LibraryProfile::cheddar(),
            pim: None,
            layout: LayoutPolicy::ColumnPartitioned,
            fusion: FusionConfig::gpu_baseline(),
            fault: None,
            retry: RetryPolicy::fixed(MAX_PIM_RETRIES),
            schedule: ScheduleMode::Serial,
        }
    }

    /// Anaheim on A100 with near-bank PIM.
    pub fn a100_near_bank() -> Self {
        Self {
            name: "A100 + near-bank PIM",
            gpu: GpuConfig::a100_80gb(),
            library: LibraryProfile::cheddar(),
            pim: Some(PimDeviceConfig::a100_near_bank()),
            layout: LayoutPolicy::ColumnPartitioned,
            fusion: FusionConfig::full(),
            fault: None,
            retry: RetryPolicy::fixed(MAX_PIM_RETRIES),
            schedule: ScheduleMode::Serial,
        }
    }

    /// Attaches a fault-injection plan: PIM kernels run under injected
    /// faults and degrade to the GPU when integrity checks fail; GPU
    /// kernels draw stream stalls and transfer flips.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Overrides the retry discipline for transient PIM failures.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Selects the timeline discipline ([`ScheduleMode::Serial`] by
    /// default; [`ScheduleMode::Pipelined`] overlaps independent GPU/PIM
    /// work across two virtual streams).
    pub fn with_schedule_mode(mut self, mode: ScheduleMode) -> Self {
        self.schedule = mode;
        self
    }

    /// Anaheim on A100 with custom-HBM PIM.
    pub fn a100_custom_hbm() -> Self {
        Self {
            name: "A100 + custom-HBM PIM",
            pim: Some(PimDeviceConfig::a100_custom_hbm()),
            ..Self::a100_near_bank()
        }
    }

    /// GPU-only baseline on RTX 4090.
    pub fn rtx4090_baseline() -> Self {
        Self {
            name: "RTX 4090 (GPU only)",
            gpu: GpuConfig::rtx4090(),
            ..Self::a100_baseline()
        }
    }

    /// Anaheim on RTX 4090 with near-bank PIM.
    pub fn rtx4090_near_bank() -> Self {
        Self {
            name: "RTX 4090 + near-bank PIM",
            gpu: GpuConfig::rtx4090(),
            pim: Some(PimDeviceConfig::rtx4090_near_bank()),
            ..Self::a100_near_bank()
        }
    }

    /// The hypothetical 4×-bandwidth A100 of Fig. 4a.
    pub fn a100_4x_bandwidth() -> Self {
        Self {
            name: "A100 (4x BW, hypothetical)",
            gpu: GpuConfig::a100_4x_bandwidth(),
            ..Self::a100_baseline()
        }
    }
}

/// The Anaheim runtime.
#[derive(Debug)]
pub struct Anaheim {
    config: AnaheimConfig,
    model: GpuModel,
}

impl Anaheim {
    /// Builds the runtime for a platform configuration.
    pub fn new(config: AnaheimConfig) -> Self {
        let model = GpuModel::new(config.gpu.clone(), config.library);
        Self { config, model }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnaheimConfig {
        &self.config
    }

    /// The GPU performance model built from the configuration.
    pub fn model(&self) -> &GpuModel {
        &self.model
    }

    /// Runs a sequence with default [`RunOptions`]: [`prepare`s](Self::prepare)
    /// it, then schedules it.
    ///
    /// Integrity-check failures under a configured fault plan are absorbed
    /// by retry/GPU-fallback and recorded in the report; only failures no
    /// fallback can fix (e.g. an unsupported PIM instruction) surface as
    /// [`RunError`].
    ///
    /// ```
    /// use anaheim_core::build::{Builder, LinTransStyle};
    /// use anaheim_core::framework::{Anaheim, AnaheimConfig};
    /// use anaheim_core::params::ParamSet;
    ///
    /// let mut b = Builder::new(ParamSet::paper_default());
    /// let seq = b.lintrans(54, 8, LinTransStyle::Hoisting, true);
    ///
    /// let anaheim = Anaheim::new(AnaheimConfig::a100_near_bank());
    /// let report = anaheim.run(seq).expect("paper-scale lintrans runs");
    /// assert!(report.total_ns > 0.0);
    /// assert!(report.pim_dram_bytes > 0, "element-wise blocks ran on PIM");
    /// ```
    pub fn run(&self, mut seq: OpSequence) -> Result<ExecutionReport, RunError> {
        self.prepare(&mut seq);
        self.run_prepared(&seq)
    }

    /// Prepares a sequence for [`Anaheim::run_prepared_with`]: applies the
    /// configured fusion pipeline and, in PIM mode, the measured offload
    /// pass. Pure — safe to run in parallel across requests.
    pub fn prepare(&self, seq: &mut OpSequence) {
        fuse(seq, &self.config.fusion);
        if let Some(dev) = &self.config.pim {
            offload(seq, &self.model, dev, self.config.layout);
        }
    }

    /// Schedules a sequence that is already prepared, with default
    /// [`RunOptions`].
    pub fn run_prepared(&self, seq: &OpSequence) -> Result<ExecutionReport, RunError> {
        self.run_prepared_with(seq, RunOptions::default())
    }

    /// Schedules a sequence that is already prepared: the one scheduler
    /// this configuration describes, GPU-only or with PIM, with its retry
    /// policy, schedule mode and fault plan, runs under `opts`. A registry
    /// in [`RunOptions::health`] persists across calls — the serving layer
    /// prepares each request template once and then schedules every
    /// request through this entry point, in arrival order, so one
    /// request's faults inform the routing of the next.
    ///
    /// ```
    /// use anaheim_core::build::{Builder, LinTransStyle};
    /// use anaheim_core::framework::{Anaheim, AnaheimConfig};
    /// use anaheim_core::params::ParamSet;
    /// use anaheim_core::schedule::RunOptions;
    /// use anaheim_core::telemetry::Telemetry;
    ///
    /// let mut b = Builder::new(ParamSet::paper_default());
    /// let mut seq = b.lintrans(54, 8, LinTransStyle::Hoisting, true);
    /// let rt = Anaheim::new(AnaheimConfig::a100_near_bank());
    /// rt.prepare(&mut seq);
    /// let mut tel = Telemetry::new(42);
    /// let opts = RunOptions {
    ///     telemetry: Some(&mut tel),
    ///     ..RunOptions::default()
    /// };
    /// rt.run_prepared_with(&seq, opts).expect("runs");
    /// assert!(!tel.trace.is_empty());
    /// assert!(tel.chrome_trace().contains("\"traceEvents\""));
    /// ```
    pub fn run_prepared_with(
        &self,
        seq: &OpSequence,
        opts: RunOptions<'_>,
    ) -> Result<ExecutionReport, RunError> {
        let sched = match &self.config.pim {
            Some(dev) => Scheduler::with_pim(&self.model, dev, self.config.layout),
            None => Scheduler::gpu_only(&self.model),
        }
        .with_retry_policy(self.config.retry)
        .with_mode(self.config.schedule);
        match self.config.fault {
            Some(plan) => sched.with_fault_plan(plan).run_with(seq, opts),
            None => sched.run_with(seq, opts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Builder;
    use crate::params::ParamSet;

    #[test]
    fn bootstrap_speedup_in_paper_range() {
        // Fig. 8 Boot: 1.24–1.74× on A100 near-bank. We accept a slightly
        // wider modeling band here; the figure harness reports the exact
        // value.
        let mut b = Builder::new(ParamSet::paper_default());
        let seq = b.bootstrap();
        let base = Anaheim::new(AnaheimConfig::a100_baseline())
            .run(seq.clone())
            .unwrap();
        let pim = Anaheim::new(AnaheimConfig::a100_near_bank())
            .run(seq)
            .unwrap();
        let speedup = base.total_ns / pim.total_ns;
        assert!(
            (1.05..2.5).contains(&speedup),
            "A100 near-bank bootstrap speedup out of band: {speedup:.2}"
        );
        // EDP must improve by more than the speedup (energy also drops).
        let edp_gain = base.edp() / pim.edp();
        assert!(edp_gain > speedup, "EDP gain {edp_gain:.2} vs {speedup:.2}");
    }

    #[test]
    fn elementwise_fraction_matches_fig2b() {
        // Fig. 2b: element-wise ops are 45–48% of bootstrapping on A100
        // and 68–69% on RTX 4090 (the paper's central observation).
        let mut b = Builder::new(ParamSet::paper_default());
        let seq = b.bootstrap();
        let a100 = Anaheim::new(AnaheimConfig::a100_baseline())
            .run(seq.clone())
            .unwrap();
        let f_a100 = a100.fraction("element-wise");
        assert!(
            (0.35..0.60).contains(&f_a100),
            "A100 element-wise share ≈ 45-48%, got {:.0}%",
            100.0 * f_a100
        );
        let g = Anaheim::new(AnaheimConfig::rtx4090_baseline())
            .run(seq)
            .unwrap();
        let f_4090 = g.fraction("element-wise");
        assert!(
            f_4090 > f_a100,
            "share must be higher on the 4090 (Fig. 2b): {:.0}% vs {:.0}%",
            100.0 * f_4090,
            100.0 * f_a100
        );
    }

    #[test]
    fn fault_plan_degrades_but_completes() {
        let mut b = Builder::new(ParamSet::paper_default());
        let seq = b.bootstrap();
        let cfg = AnaheimConfig::a100_near_bank()
            .with_fault_plan(FaultPlan::none().with_seed(17).with_bank_flips(0.5));
        let r = Anaheim::new(cfg).run(seq).unwrap();
        assert!(r.faults_detected > 0, "flips at p=0.5 must fire");
        assert!(r.degraded_segments > 0);
        assert!(r.total_ns > 0.0);
    }

    #[test]
    fn pipelined_schedule_mode_threads_through_framework() {
        let mut b = Builder::new(ParamSet::paper_default());
        let seq = b.bootstrap();
        let serial = Anaheim::new(AnaheimConfig::a100_near_bank())
            .run(seq.clone())
            .unwrap();
        let cfg = AnaheimConfig::a100_near_bank().with_schedule_mode(ScheduleMode::Pipelined);
        let pipe = Anaheim::new(cfg).run(seq).unwrap();
        let speedup = serial.total_ns / pipe.total_ns;
        assert!(
            speedup > 1.0 && speedup <= 1.35,
            "§V-C band violated through the framework: {speedup:.4}x"
        );
        assert!(pipe.stream_overlap_ns > 0.0);
    }

    #[test]
    fn config_presets_have_distinct_names() {
        let mut names = std::collections::HashSet::new();
        for c in [
            AnaheimConfig::a100_baseline(),
            AnaheimConfig::a100_near_bank(),
            AnaheimConfig::a100_custom_hbm(),
            AnaheimConfig::rtx4090_baseline(),
            AnaheimConfig::rtx4090_near_bank(),
            AnaheimConfig::a100_4x_bandwidth(),
        ] {
            assert!(names.insert(c.name), "duplicate name {}", c.name);
        }
    }
}
