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
    // The serving engine prepares requests in parallel (the only
    // multi-threaded stage) and records only on the serial dispatch lane.
    let a = serving_exports(1);
    let b = serving_exports(8);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}
