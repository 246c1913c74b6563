//! Telemetry determinism across thread counts.
//!
//! The observability layer records exclusively from virtual-time-ordered
//! serial code (the scheduler loop, the serving dispatch lane), stamping
//! spans from the simulation clock and ids from a seeded generator — never
//! from wall clock or thread identity. These tests pin the resulting
//! contract: the exported Chrome trace JSON and Prometheus text are
//! **byte-identical** for every `ANAHEIM_THREADS` value.

use anaheim::core::framework::{Anaheim, AnaheimConfig};
use anaheim::core::health::HealthRegistry;
use anaheim::core::schedule::RunOptions;
use anaheim::core::telemetry::Telemetry;
use anaheim::obs::StreamingTraceSink;
use anaheim::serving::{Priority, Request, ServingConfig, ShardConfig, ShardedEngine, StreamObs};
use anaheim::workloads::{run_workload_with, Workload};

/// Runs `f` under an explicit parpool width, restoring auto mode after.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    parpool::set_threads(n);
    let r = f();
    parpool::set_threads(0);
    r
}

fn boot_exports(threads: usize) -> (String, String) {
    with_threads(threads, || {
        let rt = Anaheim::new(AnaheimConfig::a100_near_bank());
        let mut tel = Telemetry::new(42);
        let opts = RunOptions {
            telemetry: Some(&mut tel),
            ..RunOptions::default()
        };
        run_workload_with(&rt, &Workload::boot(), opts).expect("Boot runs");
        (tel.chrome_trace(), tel.prometheus())
    })
}

#[test]
fn bootstrap_trace_and_metrics_identical_across_thread_counts() {
    let (trace1, prom1) = boot_exports(1);
    let (trace8, prom8) = boot_exports(8);
    assert!(trace1.contains("\"traceEvents\""));
    assert!(prom1.contains("anaheim_kernels_total"));
    assert_eq!(trace1, trace8, "Chrome trace must not depend on threads");
    assert_eq!(prom1, prom8, "metrics must not depend on threads");
}

fn pipelined_boot_exports(threads: usize) -> (String, String) {
    with_threads(threads, || {
        use anaheim::core::schedule::ScheduleMode;
        let rt = Anaheim::new(
            AnaheimConfig::a100_near_bank().with_schedule_mode(ScheduleMode::Pipelined),
        );
        let mut tel = Telemetry::new(42);
        let opts = RunOptions {
            telemetry: Some(&mut tel),
            ..RunOptions::default()
        };
        run_workload_with(&rt, &Workload::boot(), opts).expect("Boot runs");
        (tel.chrome_trace(), tel.prometheus())
    })
}

#[test]
fn pipelined_trace_and_metrics_identical_across_thread_counts() {
    // The pipelined scheduler issues in serial program order and only the
    // virtual stream cursors differ from serial mode, so its stream-segment
    // spans and overlap gauge obey the same byte-identity contract.
    let (trace1, prom1) = pipelined_boot_exports(1);
    let (trace8, prom8) = pipelined_boot_exports(8);
    assert!(trace1.contains("gpu-stream") && trace1.contains("pim-stream"));
    assert!(prom1.contains("anaheim_stream_overlap_ns"));
    assert_eq!(trace1, trace8, "pipelined trace must not depend on threads");
    assert_eq!(prom1, prom8, "pipelined metrics must not depend on threads");
}

fn health_exports(threads: usize) -> (String, String) {
    with_threads(threads, || {
        let cfg = AnaheimConfig::a100_near_bank();
        let mut reg = HealthRegistry::for_device(
            cfg.pim.as_ref().expect("near-bank has PIM"),
            Default::default(),
        );
        let rt = Anaheim::new(cfg);
        let mut tel = Telemetry::new(7);
        let opts = RunOptions {
            health: Some(&mut reg),
            telemetry: Some(&mut tel),
            ..RunOptions::default()
        };
        run_workload_with(&rt, &Workload::helr(), opts).expect("HELR runs");
        (tel.chrome_trace(), tel.prometheus())
    })
}

#[test]
fn health_gated_trace_identical_across_thread_counts() {
    let a = health_exports(1);
    let b = health_exports(8);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

fn serving_exports(threads: usize) -> (String, String) {
    with_threads(threads, || {
        use anaheim::core::build::{Builder, LinTransStyle};
        use anaheim::core::params::ParamSet;
        let trace: Vec<Request> = (0..6)
            .map(|i| {
                let mut b = Builder::new(ParamSet::paper_default());
                Request {
                    id: i,
                    tenant: (i % 2) as u32,
                    priority: if i % 3 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Standard
                    },
                    arrival_ns: i as f64 * 5e4,
                    deadline_ns: 1e12,
                    seq: std::sync::Arc::new(b.lintrans(24, 4, LinTransStyle::Hoisting, true)),
                    fault: None,
                    label: "lintrans",
                }
            })
            .collect();
        let mut engine = ShardedEngine::new(ServingConfig::a100_default(7), ShardConfig::new(1));
        let mut tel = Telemetry::new(7);
        // Large enough to keep every span: the sink holds the whole trace.
        let mut sink = StreamingTraceSink::new(1 << 16);
        let mut obs = StreamObs::new(&mut tel, &mut sink);
        engine
            .run_stream(trace, |_| {}, Some(&mut obs))
            .expect("serves");
        let spans: Vec<_> = sink.recent().collect();
        (format!("{spans:?}"), tel.prometheus())
    })
}

#[test]
fn serving_trace_identical_across_thread_counts() {
    // The serving engine runs on the caller's thread and records only on
    // the dispatch lane; the thread count reaches only the kernels' limb
    // fan-out, which records nothing.
    let a = serving_exports(1);
    let b = serving_exports(8);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn folded_metrics_and_health_counters_match_the_reports() {
    use anaheim::core::build::{Builder, LinTransStyle};
    use anaheim::core::params::ParamSet;
    use anaheim::core::report::ExecutionReport;
    use anaheim::core::telemetry::names;
    use anaheim::pim::fault::FaultPlan;
    use std::collections::BTreeMap;

    // One registry and one sink across a series of faulty, health-gated
    // runs, as a serving shard uses them.
    let cfg = AnaheimConfig::a100_near_bank();
    let mut reg = HealthRegistry::for_device(cfg.pim.as_ref().expect("PIM"), Default::default());
    let rt = Anaheim::new(cfg);
    let mut seq =
        Builder::new(ParamSet::paper_default()).lintrans(54, 8, LinTransStyle::Hoisting, true);
    rt.prepare(&mut seq);
    let mut tel = Telemetry::new(9);
    let mut reports: Vec<ExecutionReport> = Vec::new();
    let mut base_ns = 0.0;
    for seed in 0..6 {
        reg.set_base_ns(base_ns);
        tel.set_base_ns(base_ns);
        // Transient flips throughout; a stuck lane from the third run on
        // pins a breaker open, so later kernels skip PIM.
        let mut plan = FaultPlan::none().with_seed(seed).with_bank_flips(0.5);
        if seed >= 2 {
            plan = plan.with_stuck_lane(3);
        }
        let opts = RunOptions {
            health: Some(&mut reg),
            telemetry: Some(&mut tel),
            fault: Some(plan),
            ..RunOptions::default()
        };
        let r = rt
            .run_prepared_with(&seq, opts)
            .expect("degraded runs complete");
        base_ns += r.total_ns;
        reports.push(r);
    }

    let sum = |f: fn(&ExecutionReport) -> u64| reports.iter().map(f).sum::<u64>();
    let faults = sum(|r| r.faults_detected.into());
    let retries = sum(|r| r.pim_retries.into());
    let fallbacks = sum(|r| r.pim_fallbacks.into());
    let skips = sum(|r| r.breaker_skips.into());
    let transitions = sum(|r| r.transitions.into());
    let breaker_transitions = sum(|r| r.breaker_transitions.len() as u64);
    for (what, n) in [
        ("faults", faults),
        ("retries", retries),
        ("fallbacks", fallbacks),
        ("breaker skips", skips),
        ("breaker transitions", breaker_transitions),
    ] {
        assert!(n > 0, "the fault plan must produce {what}");
    }

    let m = &tel.metrics;
    assert_eq!(m.counter_value(names::FAULTS, &[]), faults);
    assert_eq!(m.counter_value(names::RETRIES, &[]), retries);
    assert_eq!(m.counter_value(names::FALLBACKS, &[]), fallbacks);
    assert_eq!(m.counter_value(names::BREAKER_SKIPS, &[]), skips);
    assert_eq!(m.counter_value(names::TRANSITIONS, &[]), transitions);
    assert_eq!(
        m.counter_value(names::HBM_BYTES, &[]),
        sum(|r| r.gpu_dram_bytes)
    );
    assert_eq!(
        m.counter_value(names::PIM_INTERNAL_BYTES, &[]),
        sum(|r| r.pim_dram_bytes)
    );
    let (mmac_ops, acts) = (sum(|r| r.pim_mmac_ops), sum(|r| r.pim_acts));
    assert!(
        mmac_ops > 0 && acts > 0,
        "the runs must execute PIM kernels"
    );
    assert_eq!(m.counter_value(names::PIM_MMAC_OPS, &[]), mmac_ops);
    assert_eq!(m.counter_value(names::PIM_ACTS, &[]), acts);
    let mut to: BTreeMap<String, u64> = BTreeMap::new();
    for t in reports.iter().flat_map(|r| &r.breaker_transitions) {
        *to.entry(t.to.to_string()).or_default() += 1;
    }
    for (state, n) in &to {
        assert_eq!(
            m.counter_value(names::BREAKER_TRANSITIONS, &[("to", state)]),
            *n
        );
    }

    // Kernel counts and durations per (executor, class); each histogram
    // sum adds the durations in the order the kernels ran.
    let mut kernels: BTreeMap<(&str, &str), (u64, f64)> = BTreeMap::new();
    for s in reports.iter().flat_map(|r| &r.segments) {
        let e = kernels.entry((s.executor.name(), s.class)).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
    }
    for (&(executor, class), &(n, ns)) in &kernels {
        let labels = [("executor", executor), ("class", class)];
        assert_eq!(m.counter_value(names::KERNELS_TOTAL, &labels), n);
        let h = m.histogram(names::KERNEL_NS, &labels).expect("series");
        assert_eq!(h.count(), n);
        assert_eq!(h.sum().to_bits(), ns.to_bits(), "{executor}/{class} sum");
    }

    assert_eq!(reg.counters.faults_detected, faults);
    assert_eq!(reg.counters.pim_retries, retries);
    assert_eq!(reg.counters.gpu_fallbacks, fallbacks);
}
