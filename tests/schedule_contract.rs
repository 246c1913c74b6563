//! The scheduler's behaviour contract.
//!
//! Every case runs one offloaded op sequence through the scheduler and
//! reduces the result to FNV-1a digests: of `format!("{report:?}")` and,
//! for traced cases, of the Chrome trace and Prometheus exports.
//! `ExecutionReport` keys its breakdown by a `BTreeMap` and `f64`'s `Debug`
//! form round-trips, so a digest changes iff a single bit of the report
//! (or export) does. The grid crosses platform (GPU-only, GPU + PIM),
//! timeline (serial, pipelined), gating (no registry, a fresh
//! `HealthRegistry`), five fault plans, two retry policies, traced and
//! untraced runs, and a sweep of tight deadline budgets. One registry is
//! also reused across a series of runs so breaker cooldown, half-open and
//! probe state carry from run to run.
//!
//! The expected digests live in `tests/golden/schedule_contract.txt`. A
//! refactor of the scheduler must leave every line unchanged.

use anaheim::core::build::{Builder, LinTransStyle};
use anaheim::core::framework::{Anaheim, AnaheimConfig};
use anaheim::core::health::{BreakerConfig, HealthRegistry, RetryPolicy};
use anaheim::core::ir::OpSequence;
use anaheim::core::params::ParamSet;
use anaheim::core::passes::{fuse, offload, FusionConfig};
use anaheim::core::report::ExecutionReport;
use anaheim::core::schedule::{RunOptions, ScheduleMode, Scheduler};
use anaheim::core::telemetry::Telemetry;
use anaheim::gpu::config::{GpuConfig, LibraryProfile};
use anaheim::gpu::model::GpuModel;
use anaheim::pim::device::PimDeviceConfig;
use anaheim::pim::fault::FaultPlan;
use anaheim::pim::layout::LayoutPolicy;
use anaheim::workloads::{run_workload, Workload, WorkloadReport};

const GOLDEN: &str = include_str!("golden/schedule_contract.txt");

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn report_digest(r: &ExecutionReport) -> String {
    format!("{:016x}", fnv1a(&format!("{r:?}")))
}

fn traced_digest(r: &ExecutionReport, tel: &Telemetry) -> String {
    format!(
        "{} {:016x} {:016x}",
        report_digest(r),
        fnv1a(&tel.chrome_trace()),
        fnv1a(&tel.prometheus())
    )
}

struct Fixture {
    gpu: GpuModel,
    dev: PimDeviceConfig,
    seqs: Vec<(&'static str, OpSequence)>,
}

impl Fixture {
    fn new() -> Self {
        let gpu = GpuModel::new(GpuConfig::a100_80gb(), LibraryProfile::cheddar());
        let dev = PimDeviceConfig::a100_near_bank();
        let offloaded = |mut seq: OpSequence| {
            fuse(&mut seq, &FusionConfig::full());
            offload(&mut seq, &gpu, &dev, LayoutPolicy::ColumnPartitioned);
            seq
        };
        let lt =
            Builder::new(ParamSet::paper_default()).lintrans(54, 8, LinTransStyle::Hoisting, true);
        let boot = Builder::new(ParamSet::paper_default()).bootstrap();
        let seqs = vec![("lt", offloaded(lt)), ("boot", offloaded(boot))];
        Self { gpu, dev, seqs }
    }

    fn registry(&self) -> HealthRegistry {
        HealthRegistry::for_device(&self.dev, BreakerConfig::default())
    }
}

#[derive(Clone, Copy)]
struct Setup {
    pim: bool,
    mode: ScheduleMode,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    budget_ns: Option<f64>,
}

fn plans() -> [(&'static str, Option<FaultPlan>); 5] {
    [
        ("clean", None),
        (
            "flips",
            Some(FaultPlan::none().with_seed(11).with_bank_flips(0.4)),
        ),
        (
            "stuck3",
            Some(FaultPlan::none().with_seed(5).with_stuck_lane(3)),
        ),
        (
            "gpu",
            Some(
                FaultPlan::none()
                    .with_seed(9)
                    .with_gpu_stalls(0.3, 4000.0)
                    .with_gpu_transfer_flips(0.05),
            ),
        ),
        (
            "drops",
            Some(FaultPlan::none().with_seed(13).with_cmd_drops(0.002)),
        ),
    ]
}

fn run(
    fx: &Fixture,
    s: Setup,
    seq: &OpSequence,
    registry: Option<&mut HealthRegistry>,
    tel: Option<&mut Telemetry>,
) -> ExecutionReport {
    let mut sched = if s.pim {
        Scheduler::with_pim(&fx.gpu, &fx.dev, LayoutPolicy::ColumnPartitioned)
    } else {
        Scheduler::gpu_only(&fx.gpu)
    }
    .with_mode(s.mode)
    .with_retry_policy(s.retry);
    if let Some(plan) = s.plan {
        sched = sched.with_fault_plan(plan);
    }
    let opts = RunOptions {
        health: registry,
        telemetry: tel,
        budget_ns: s.budget_ns,
        fault: None,
    };
    sched
        .run_with(seq, opts)
        .expect("the contract grid only uses supported kernels")
}

/// Every case of the grid, as `name digest…` lines in a fixed order.
fn contract_lines() -> Vec<String> {
    let fx = Fixture::new();
    let mut lines = Vec::new();
    let modes = [
        ("serial", ScheduleMode::Serial),
        ("pipe", ScheduleMode::Pipelined),
    ];
    let retries = [
        ("fixed2", RetryPolicy::fixed(2)),
        ("serving", RetryPolicy::serving_default(7)),
    ];
    for (seq_name, seq) in &fx.seqs {
        for (platform, pim) in [("gpu", false), ("pim", true)] {
            for (mode_name, mode) in modes {
                for (plan_name, plan) in plans() {
                    for (retry_name, retry) in retries {
                        for health in [false, true] {
                            for traced in [false, true] {
                                let s = Setup {
                                    pim,
                                    mode,
                                    plan,
                                    retry,
                                    budget_ns: None,
                                };
                                let mut reg = health.then(|| fx.registry());
                                let mut tel = traced.then(|| Telemetry::new(42));
                                let r = run(&fx, s, seq, reg.as_mut(), tel.as_mut());
                                let digest = match &tel {
                                    Some(t) => traced_digest(&r, t),
                                    None => report_digest(&r),
                                };
                                let gate = if health { "health" } else { "legacy" };
                                let tr = if traced { "traced" } else { "plain" };
                                lines.push(format!(
                                    "{seq_name}/{platform}/{mode_name}/{plan_name}/{retry_name}/{gate}/{tr} {digest}"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    // Tight deadline budgets: fractions of each configuration's
    // unbudgeted makespan, so cancellations land at many different
    // segment boundaries (inside PIM runs, at handoffs, in fallbacks).
    const FRACTIONS: [f64; 9] = [0.0, 0.07, 0.19, 0.33, 0.41, 0.58, 0.66, 0.83, 0.97];
    for (seq_name, seq) in &fx.seqs {
        for (platform, pim) in [("gpu", false), ("pim", true)] {
            for (mode_name, mode) in modes {
                for (plan_name, plan) in plans() {
                    for health in [false, true] {
                        let base = Setup {
                            pim,
                            mode,
                            plan,
                            retry: RetryPolicy::serving_default(3),
                            budget_ns: None,
                        };
                        let mut reg = health.then(|| fx.registry());
                        let full = run(&fx, base, seq, reg.as_mut(), None).total_ns;
                        for (i, f) in FRACTIONS.iter().enumerate() {
                            let s = Setup {
                                budget_ns: Some(full * f),
                                ..base
                            };
                            let mut reg = health.then(|| fx.registry());
                            let traced = i % 3 == 1;
                            let mut tel = traced.then(|| Telemetry::new(7));
                            let r = run(&fx, s, seq, reg.as_mut(), tel.as_mut());
                            let digest = match &tel {
                                Some(t) => traced_digest(&r, t),
                                None => report_digest(&r),
                            };
                            let gate = if health { "health" } else { "legacy" };
                            lines.push(format!(
                                "budget/{seq_name}/{platform}/{mode_name}/{plan_name}/{gate}/{i} {digest}"
                            ));
                        }
                    }
                }
            }
        }
    }
    // One registry and one telemetry sink reused across a series of runs:
    // trips, cooldowns, half-open probes and re-closes carry over.
    for (mode_name, mode) in modes {
        let mut reg = fx.registry();
        let mut tel = Telemetry::new(99);
        let mut base_ns = 0.0f64;
        for i in 0..8u64 {
            let plan = if i % 4 == 3 {
                FaultPlan::none().with_seed(21).with_stuck_lane(5)
            } else {
                FaultPlan::none().with_seed(17).with_bank_flips(0.6)
            }
            .derive_stream(i);
            let s = Setup {
                pim: true,
                mode,
                plan: Some(plan),
                retry: RetryPolicy::serving_default(11),
                budget_ns: None,
            };
            let (seq_name, seq) = &fx.seqs[(i % 2) as usize];
            reg.set_base_ns(base_ns);
            tel.set_base_ns(base_ns);
            let r = run(&fx, s, seq, Some(&mut reg), Some(&mut tel));
            base_ns += r.total_ns + 2.0e6;
            lines.push(format!(
                "shared/{mode_name}/{i}/{seq_name} {}",
                report_digest(&r)
            ));
        }
        lines.push(format!(
            "shared/{mode_name}/registry {:016x}",
            fnv1a(&format!("{reg:?}"))
        ));
        lines.push(format!(
            "shared/{mode_name}/exports {:016x} {:016x}",
            fnv1a(&tel.chrome_trace()),
            fnv1a(&tel.prometheus())
        ));
    }
    let (run, prepared, workload) = gpu_only_stalled_runs();
    lines.push(format!("gpu-only-fault-plan/run {}", report_digest(&run)));
    lines.push(format!(
        "gpu-only-fault-plan/run-prepared {}",
        report_digest(&prepared)
    ));
    lines.push(format!(
        "gpu-only-fault-plan/workload {:016x}",
        fnv1a(&format!("{workload:?}"))
    ));
    lines
}

const STALL_NS: f64 = 5000.0;

fn stalled_baseline() -> Anaheim {
    let plan = FaultPlan::none()
        .with_seed(7)
        .with_gpu_stalls(1.0, STALL_NS);
    Anaheim::new(AnaheimConfig::a100_baseline().with_fault_plan(plan))
}

fn lintrans() -> OpSequence {
    Builder::new(ParamSet::paper_default()).lintrans(54, 8, LinTransStyle::Hoisting, true)
}

/// A GPU-only configuration with a stall-every-launch fault plan, run
/// through `Anaheim::run`, `Anaheim::run_prepared` and `run_workload`.
fn gpu_only_stalled_runs() -> (ExecutionReport, ExecutionReport, WorkloadReport) {
    let rt = stalled_baseline();
    let run = rt.run(lintrans()).expect("GPU-only lintrans runs");
    let mut seq = lintrans();
    rt.prepare(&mut seq);
    let prepared = rt.run_prepared(&seq).expect("GPU-only lintrans runs");
    let workload = run_workload(&rt, &Workload::boot()).expect("GPU-only Boot runs");
    (run, prepared, workload)
}

fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-9 * want,
        "{what}: {got} vs expected {want}"
    );
}

#[test]
fn gpu_only_configs_honour_their_fault_plan() {
    let clean_rt = Anaheim::new(AnaheimConfig::a100_baseline());
    let clean = clean_rt.run(lintrans()).expect("GPU-only lintrans runs");
    let kernels = clean.segments.len() as u32;
    let (run, prepared, workload) = gpu_only_stalled_runs();
    for (entry, r) in [("Anaheim::run", &run), ("Anaheim::run_prepared", &prepared)] {
        assert_eq!(r.gpu_stalls, kernels, "{entry}: every launch must stall");
        assert_close(
            r.total_ns,
            clean.total_ns + f64::from(kernels) * STALL_NS,
            entry,
        );
    }
    let w = Workload::boot();
    let mut want_ms = 0.0;
    for seg in &w.segments {
        let r = clean_rt.run(seg.seq.clone()).expect("GPU-only Boot runs");
        let stalled_ns = r.total_ns + r.segments.len() as f64 * STALL_NS;
        want_ms += stalled_ns / 1e6 * seg.repeat as f64;
    }
    let got_ms = workload.outcome.expect("Boot fits the A100").time_ms;
    assert_close(got_ms, want_ms, "run_workload");
}

#[test]
fn schedule_contract_digests_are_unchanged() {
    let got = contract_lines();
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    let mismatched: Vec<String> = got
        .iter()
        .zip(want.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(g, w)| g.as_str() != *w)
        .map(|(g, w)| format!("  got  {g}\n  want {w}"))
        .collect();
    if !mismatched.is_empty() || got.len() != want.len() {
        eprintln!("computed contract:\n{}", got.join("\n"));
        panic!(
            "{} of {} contract cases differ ({} expected):\n{}",
            mismatched.len(),
            got.len(),
            want.len(),
            mismatched.join("\n")
        );
    }
}
