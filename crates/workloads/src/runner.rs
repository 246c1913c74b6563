//! Runs workloads through an [`Anaheim`] runtime and aggregates the
//! per-segment reports into workload-level results (Fig. 8 / Table V).

use std::collections::BTreeMap;

use anaheim_core::error::RunError;
use anaheim_core::framework::Anaheim;
use anaheim_core::schedule::RunOptions;

use crate::catalog::Workload;

/// Aggregated result of one workload on one platform.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: &'static str,
    /// Platform name.
    pub platform: &'static str,
    /// `None` when the workload does not fit the device (OoM, §VIII-B).
    pub outcome: Option<WorkloadNumbers>,
}

/// The measured quantities.
#[derive(Debug, Clone, Default)]
pub struct WorkloadNumbers {
    /// End-to-end time in ms (per the workload's reporting unit).
    pub time_ms: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// GPU-side DRAM traffic in GB.
    pub gpu_dram_gb: f64,
    /// PIM-side traffic in GB.
    pub pim_dram_gb: f64,
    /// Time share per kernel class.
    pub breakdown_ms: BTreeMap<&'static str, f64>,
    /// PIM integrity-check failures across all segments and repeats.
    pub faults_detected: u64,
    /// PIM retries taken after transient faults.
    pub pim_retries: u64,
    /// Degraded-mode segments (wasted PIM attempts + GPU re-executions).
    pub degraded_segments: u64,
    /// Kernels that fell back to the GPU after exhausting PIM retries.
    pub pim_fallbacks: u64,
    /// Kernels routed straight to the GPU by an open circuit breaker.
    pub breaker_skips: u64,
    /// Virtual time the pipelined schedule overlapped across the GPU and
    /// PIM streams, in ms. Always 0 under [`ScheduleMode::Serial`].
    ///
    /// [`ScheduleMode::Serial`]: anaheim_core::schedule::ScheduleMode::Serial
    pub overlap_ms: f64,
}

impl WorkloadNumbers {
    /// Energy-delay product in J·s.
    pub fn edp(&self) -> f64 {
        self.energy_j * self.time_ms * 1e-3
    }

    /// `T_boot,eff` = time / `L_eff` (§II-C), for bootstrap-style
    /// workloads.
    pub fn t_eff_ms(&self, l_eff: usize) -> f64 {
        self.time_ms / l_eff as f64
    }

    /// Fraction of time in a breakdown class.
    pub fn fraction(&self, class: &str) -> f64 {
        let total: f64 = self.breakdown_ms.values().sum();
        if total == 0.0 {
            return 0.0;
        }
        self.breakdown_ms
            .iter()
            .find(|(k, _)| **k == class)
            .map(|(_, v)| v / total)
            .unwrap_or(0.0)
    }
}

/// Runs a workload on a platform with default [`RunOptions`].
pub fn run_workload(rt: &Anaheim, w: &Workload) -> Result<WorkloadReport, RunError> {
    run_workload_with(rt, w, RunOptions::default())
}

/// Runs a workload on a platform, honouring capacity limits: every segment
/// is prepared and scheduled once under `opts` (the budget applies to each
/// segment's run) and its numbers are scaled by the segment's repeats.
///
/// Per-segment fault/retry counts aggregate into the workload numbers
/// rather than aborting the workload; only unrecoverable configuration
/// errors surface as [`RunError`].
///
/// With a registry in [`RunOptions::health`], bank health persists across
/// segments: a bank that trips during one segment stays routed-around for
/// the rest of the workload, and the registry's final
/// [`HealthSnapshot`](anaheim_core::health::HealthSnapshot) describes the
/// whole run.
///
/// With a sink in [`RunOptions::telemetry`], every segment gets one
/// `workload`-track span (kernel spans nest inside), with the trace base
/// advanced by the segment's *total* repeated duration so consecutive
/// segments tile the virtual timeline. Each segment instance is simulated
/// once and its span closed with a `repeat` argument — repeats are
/// collapsed in the trace exactly as they are in the cost model. Only the *trace* base
/// advances: the registry clock is left alone, so breaker behaviour (and
/// therefore the numbers) cannot differ between traced and untraced runs.
/// A traced, health-gated run ends with an export of the registry's
/// snapshot. Recording happens on the (serial) calling thread only, so
/// the exported trace and metrics are bit-identical for every
/// `ANAHEIM_THREADS` value.
pub fn run_workload_with(
    rt: &Anaheim,
    w: &Workload,
    mut opts: RunOptions<'_>,
) -> Result<WorkloadReport, RunError> {
    // OoM check against the workload's working set (§VIII-B).
    let capacity = rt.config().gpu.dram_capacity_bytes as u64;
    if w.footprint_bytes > capacity {
        return Ok(WorkloadReport {
            workload: w.name,
            platform: rt.config().name,
            outcome: None,
        });
    }
    let mut nums = WorkloadNumbers::default();
    let mut clock_ns = 0.0f64;
    for seg in &w.segments {
        let span = opts.telemetry.as_deref_mut().map(|tel| {
            tel.set_base_ns(clock_ns);
            tel.open_segment(format!("{} {}", w.name, seg.name), "workload", 0.0)
        });
        let mut seq = seg.seq.clone();
        rt.prepare(&mut seq);
        let r = rt.run_prepared_with(&seq, opts.reborrow())?;
        if let (Some(tel), Some(span)) = (opts.telemetry.as_deref_mut(), span) {
            tel.close_segment(span, r.total_ns, vec![("repeat", seg.repeat.into())]);
        }
        clock_ns += r.total_ns * seg.repeat as f64;
        accumulate(&mut nums, &r, seg.repeat);
    }
    if let (Some(tel), Some(reg)) = (opts.telemetry, opts.health) {
        tel.export_health(&reg.snapshot());
    }
    Ok(WorkloadReport {
        workload: w.name,
        platform: rt.config().name,
        outcome: Some(nums),
    })
}

fn accumulate(nums: &mut WorkloadNumbers, r: &anaheim_core::report::ExecutionReport, repeat: u64) {
    let k = repeat as f64;
    nums.time_ms += r.total_ms() * k;
    nums.energy_j += r.energy_j * k;
    nums.gpu_dram_gb += r.gpu_dram_bytes as f64 * k / 1e9;
    nums.pim_dram_gb += r.pim_dram_bytes as f64 * k / 1e9;
    nums.faults_detected += r.faults_detected as u64 * repeat;
    nums.pim_retries += r.pim_retries as u64 * repeat;
    nums.degraded_segments += r.degraded_segments as u64 * repeat;
    nums.pim_fallbacks += r.pim_fallbacks as u64 * repeat;
    nums.breaker_skips += r.breaker_skips as u64 * repeat;
    nums.overlap_ms += r.stream_overlap_ns * k / 1e6;
    for (class, ns) in &r.breakdown_ns {
        *nums.breakdown_ms.entry(class).or_insert(0.0) += ns * k / 1e6;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anaheim_core::framework::AnaheimConfig;
    use anaheim_core::health::HealthRegistry;
    use anaheim_core::telemetry::Telemetry;

    fn with_health(reg: &mut HealthRegistry) -> RunOptions<'_> {
        RunOptions {
            health: Some(reg),
            ..RunOptions::default()
        }
    }

    #[test]
    fn boot_runs_on_all_platforms() {
        let w = Workload::boot();
        for cfg in [
            AnaheimConfig::a100_baseline(),
            AnaheimConfig::a100_near_bank(),
            AnaheimConfig::a100_custom_hbm(),
            AnaheimConfig::rtx4090_baseline(),
            AnaheimConfig::rtx4090_near_bank(),
        ] {
            let rt = Anaheim::new(cfg);
            let r = run_workload(&rt, &w).unwrap();
            let nums = r.outcome.expect("Boot fits everywhere");
            assert!(nums.time_ms > 1.0 && nums.time_ms < 1000.0);
            assert!(nums.energy_j > 0.0);
        }
    }

    #[test]
    fn pipelined_boot_overlaps_within_band() {
        use anaheim_core::schedule::ScheduleMode;
        let w = Workload::boot();
        let serial = Anaheim::new(AnaheimConfig::a100_near_bank());
        let pipe = Anaheim::new(
            AnaheimConfig::a100_near_bank().with_schedule_mode(ScheduleMode::Pipelined),
        );
        let s = run_workload(&serial, &w).unwrap().outcome.expect("fits");
        let p = run_workload(&pipe, &w).unwrap().outcome.expect("fits");
        assert_eq!(s.overlap_ms, 0.0, "serial mode never overlaps");
        assert!(p.overlap_ms > 0.0, "pipelined boot should overlap streams");
        let speedup = s.time_ms / p.time_ms;
        assert!(
            speedup > 1.0 && speedup <= 1.35,
            "pipelined boot speedup {speedup:.3} outside §V-C band"
        );
        // Overlap accounts exactly for the saved wall-clock (fault-free).
        assert!((p.time_ms + p.overlap_ms - s.time_ms).abs() < 1e-6);
        // Work-conserving: same traffic and energy either way.
        assert!((s.gpu_dram_gb - p.gpu_dram_gb).abs() < 1e-12);
        assert!((s.pim_dram_gb - p.pim_dram_gb).abs() < 1e-12);
        assert!((s.energy_j - p.energy_j).abs() < 1e-9);
    }

    #[test]
    fn resnet_oom_on_4090() {
        // §VIII-B / Fig. 8: R20 and R18 fail on the RTX 4090's 24 GB.
        let rt = Anaheim::new(AnaheimConfig::rtx4090_near_bank());
        assert!(run_workload(&rt, &Workload::resnet20())
            .unwrap()
            .outcome
            .is_none());
        assert!(run_workload(&rt, &Workload::resnet18_aespa())
            .unwrap()
            .outcome
            .is_none());
        // But they run on the A100.
        let a = Anaheim::new(AnaheimConfig::a100_near_bank());
        assert!(run_workload(&a, &Workload::resnet20())
            .unwrap()
            .outcome
            .is_some());
    }

    #[test]
    fn anaheim_speedups_within_paper_band() {
        // Fig. 8: 1.24–1.74× (A100 near-bank) across workloads; we accept a
        // slightly wider modelling band and check every workload improves.
        let base = Anaheim::new(AnaheimConfig::a100_baseline());
        let pim = Anaheim::new(AnaheimConfig::a100_near_bank());
        for w in Workload::all() {
            let b = run_workload(&base, &w).unwrap().outcome.expect("fits");
            let p = run_workload(&pim, &w).unwrap().outcome.expect("fits");
            let speedup = b.time_ms / p.time_ms;
            assert!(
                (1.05..2.2).contains(&speedup),
                "{}: A100 near-bank speedup {speedup:.2} out of band",
                w.name
            );
            let edp_gain = b.edp() / p.edp();
            assert!(
                edp_gain > 1.3,
                "{}: EDP gain {edp_gain:.2} too small",
                w.name
            );
        }
    }

    #[test]
    fn fault_counts_aggregate_across_segments() {
        use pim::fault::FaultPlan;
        let w = Workload::boot();
        let cfg = AnaheimConfig::a100_near_bank()
            .with_fault_plan(FaultPlan::none().with_seed(23).with_bank_flips(0.5));
        let rt = Anaheim::new(cfg);
        let r = run_workload(&rt, &w).unwrap();
        let nums = r.outcome.expect("Boot fits");
        assert!(nums.faults_detected > 0, "flips at p=0.5 must fire");
        assert!(nums.degraded_segments > 0);
        // Degraded, not broken: timing is still finite and positive.
        assert!(nums.time_ms > 0.0 && nums.time_ms.is_finite());
    }

    #[test]
    fn health_runner_matches_plain_runner_when_healthy() {
        let cfg = AnaheimConfig::a100_near_bank();
        let rt = Anaheim::new(cfg.clone());
        let mut reg = HealthRegistry::for_device(
            cfg.pim.as_ref().expect("near-bank has PIM"),
            Default::default(),
        );
        let w = Workload::boot();
        let plain = run_workload(&rt, &w).unwrap().outcome.expect("fits");
        let healthy = run_workload_with(&rt, &w, with_health(&mut reg))
            .unwrap()
            .outcome
            .expect("fits");
        assert_eq!(plain.time_ms, healthy.time_ms);
        assert_eq!(plain.energy_j, healthy.energy_j);
        assert_eq!(healthy.breaker_skips, 0);
        assert_eq!(reg.snapshot().open_banks(), 0);
    }

    #[test]
    fn bank_health_persists_across_segments() {
        use pim::fault::FaultPlan;
        // A permanently stuck lane: the owning bank's breaker opens early
        // and every later segment routes around it (breaker_skips > 0).
        let cfg = AnaheimConfig::a100_near_bank()
            .with_fault_plan(FaultPlan::none().with_seed(7).with_stuck_lane(3));
        let mut reg = HealthRegistry::for_device(
            cfg.pim.as_ref().expect("near-bank has PIM"),
            Default::default(),
        );
        let rt = Anaheim::new(cfg);
        let w = Workload::helr();
        let nums = run_workload_with(&rt, &w, with_health(&mut reg))
            .unwrap()
            .outcome
            .expect("fits");
        let snap = reg.snapshot();
        assert_eq!(snap.open_banks(), 1, "exactly the sick bank trips");
        assert!(nums.breaker_skips > 0, "later kernels skip the open bank");
        assert!(nums.pim_fallbacks > 0);
        assert!(nums.time_ms > 0.0 && nums.time_ms.is_finite());
    }

    #[test]
    fn traced_runner_matches_plain_and_tiles_segments() {
        let rt = Anaheim::new(AnaheimConfig::a100_near_bank());
        let w = Workload::boot();
        let plain = run_workload(&rt, &w).unwrap().outcome.expect("fits");
        let mut tel = Telemetry::new(9);
        let opts = RunOptions {
            telemetry: Some(&mut tel),
            ..RunOptions::default()
        };
        let traced = run_workload_with(&rt, &w, opts)
            .unwrap()
            .outcome
            .expect("fits");
        // Tracing is observational: identical numbers.
        assert_eq!(plain.time_ms, traced.time_ms);
        assert_eq!(plain.energy_j, traced.energy_j);
        // One workload-track span per segment, tiled in virtual time.
        let segs: Vec<_> = tel
            .trace
            .spans()
            .iter()
            .filter(|s| s.track == "workload")
            .collect();
        assert_eq!(segs.len(), w.segments.len());
        for pair in segs.windows(2) {
            assert!(
                pair[1].start_ns >= pair[0].end_ns,
                "segments must not overlap on the timeline"
            );
        }
        assert!(tel.trace.open_spans() == 0, "all spans closed");
    }

    #[test]
    fn t_boot_eff_definition() {
        let n = WorkloadNumbers {
            time_ms: 44.0,
            ..Default::default()
        };
        assert!((n.t_eff_ms(11) - 4.0).abs() < 1e-12);
    }
}
