//! The serving layer's behaviour contract.
//!
//! Every case serves a trace and reduces what comes back to FNV-1a digests
//! of `Debug` text, one digest per part:
//!
//! - the single-engine chaos soak (`clean`, `chaos`, and `chaos` with
//!   budget cancellation) at three seeds, at 240 requests and at the
//!   48-request quick count with its stuck-lane window rescaled the way
//!   `bench_json` rescales it: the id-sorted responses, the final health
//!   snapshot and the breaker transition log;
//! - small hand-built traces (in-order completion, an infeasible deadline,
//!   queue overflow, traced and pipelined runs, same-tenant batching with
//!   and without batch-aware ordering, priority overtaking): the id-sorted
//!   responses;
//! - the five streaming fleet presets at 2000 requests: the stream summary
//!   and the rendered per-shard snapshot text.
//!
//! `f64`'s `Debug` form round-trips, so a digest changes iff a single bit
//! of its part does. The expected digests live in
//! `tests/golden/serving_contract.txt`. A refactor of the serving layer
//! must leave every line unchanged.
//!
//! One more test pins where the batch-aware ordering's lane credit gets
//! its price: the platform GPU's DRAM bandwidth, checked on a platform
//! other than the A100 every digest above runs on.

use std::fmt::Debug;
use std::sync::Arc;

use anaheim::core::build::{Builder, LinTransStyle};
use anaheim::core::framework::AnaheimConfig;
use anaheim::core::health::{BreakerTransition, HealthSnapshot, RetryPolicy};
use anaheim::core::ir::OpSequence;
use anaheim::core::params::ParamSet;
use anaheim::core::schedule::ScheduleMode;
use anaheim::core::telemetry::Telemetry;
use anaheim::obs::StreamingTraceSink;
use anaheim::serving::soak::{
    run_soak_stream, serving_config_for, shard_config_for, SoakConfig, TraceGen,
};
use anaheim::serving::{
    OrderingConfig, Outcome, Priority, Request, Response, ServingConfig, ShardConfig,
    ShardedEngine, StreamObs,
};

const GOLDEN: &str = include_str!("golden/serving_contract.txt");

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest<T: Debug + ?Sized>(v: &T) -> String {
    format!("{:016x}", fnv1a(&format!("{v:?}")))
}

/// Serves a hand-built trace on one engine (a one-shard fleet), with or
/// without telemetry; responses sorted by id.
fn serve(cfg: ServingConfig, trace: &[Request], traced: bool) -> Vec<Response> {
    let mut engine = ShardedEngine::new(cfg, ShardConfig::new(1));
    let mut responses = Vec::new();
    let mut tel = Telemetry::new(7);
    let mut sink = StreamingTraceSink::new(64);
    let mut obs = StreamObs::new(&mut tel, &mut sink);
    engine
        .run_stream(
            trace.to_vec(),
            |r| responses.push(r.clone()),
            traced.then_some(&mut obs),
        )
        .expect("hand-built traces serve");
    responses.sort_by_key(|r| r.id);
    responses
}

/// The single-engine soak's trace served on the engine `run_soak_stream`
/// builds (one shard): id-sorted responses, the final health snapshot and
/// the breaker transition log. Served directly rather than through the
/// invariant checker, which rejects a budget-cancelling soak too short to
/// cancel anything.
fn soak(cfg: &SoakConfig) -> (Vec<Response>, HealthSnapshot, Vec<BreakerTransition>) {
    let mut engine = ShardedEngine::new(serving_config_for(cfg), shard_config_for(cfg));
    let mut responses = Vec::new();
    engine
        .run_stream(TraceGen::new(cfg), |r| responses.push(r.clone()), None)
        .expect("soak serves");
    responses.sort_by_key(|r| r.id);
    let shard = engine.snapshots().remove(0);
    (responses, shard.health, shard.breaker_log)
}

/// `base` at `requests`, its stuck-lane window rescaled as `bench_json`
/// rescales it for the quick run.
fn sized(base: &SoakConfig, requests: usize) -> SoakConfig {
    SoakConfig {
        requests,
        stuck_window: base.stuck_window.map(|(a, b)| {
            let scale = requests as f64 / base.requests as f64;
            (
                (a as f64 * scale) as usize,
                ((b as f64 * scale) as usize).max((a as f64 * scale) as usize + 4),
            )
        }),
        ..base.clone()
    }
}

fn small_seq() -> Arc<OpSequence> {
    let mut b = Builder::new(ParamSet::paper_default());
    Arc::new(b.lintrans(24, 4, LinTransStyle::Hoisting, true))
}

fn req(id: u64, arrival: f64, deadline: f64, priority: Priority) -> Request {
    Request {
        id,
        tenant: (id % 3) as u32,
        priority,
        arrival_ns: arrival,
        deadline_ns: deadline,
        seq: small_seq(),
        fault: None,
        label: "lintrans",
    }
}

fn with_tenants(tenants: &[u32]) -> Vec<Request> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let mut r = req(i as u64, i as f64, 1e12, Priority::Standard);
            r.tenant = t;
            r
        })
        .collect()
}

fn two_lanes() -> ServingConfig {
    ServingConfig {
        workers: 2,
        queue_capacity: 2,
        ..ServingConfig::a100_default(7)
    }
}

fn one_lane(batching: bool, ordering: Option<OrderingConfig>) -> ServingConfig {
    ServingConfig {
        workers: 1,
        queue_capacity: 8,
        batching,
        ordering,
        ..ServingConfig::a100_default(7)
    }
}

/// The hand-built traces: `(name, config, trace, traced)`.
fn hand_built() -> Vec<(&'static str, ServingConfig, Vec<Request>, bool)> {
    let spaced = |n: u64| -> Vec<Request> {
        (0..n)
            .map(|i| req(i, i as f64 * 1e3, 1e12, Priority::Standard))
            .collect()
    };
    let pipelined = ServingConfig {
        workers: 2,
        queue_capacity: 4,
        platform: AnaheimConfig::a100_near_bank()
            .with_retry_policy(RetryPolicy::serving_default(7))
            .with_schedule_mode(ScheduleMode::Pipelined),
        cancel_over_budget: false,
        batching: false,
        ordering: None,
    };
    let mut overtake = vec![
        req(0, 0.0, 1e12, Priority::Batch),
        req(1, 1.0, 1e12, Priority::Batch),
        req(2, 2.0, 1e12, Priority::Batch),
        req(3, 3.0, 1e12, Priority::Interactive),
    ];
    overtake[3].label = "interactive";
    let ordered = Some(OrderingConfig::a100_default());
    vec![
        ("in-order", two_lanes(), spaced(4), false),
        (
            "infeasible",
            two_lanes(),
            vec![req(1, 0.0, 1.0, Priority::Interactive)],
            false,
        ),
        (
            "overflow",
            two_lanes(),
            (0..7)
                .map(|i| req(i, 0.0, 1e12, Priority::Standard))
                .collect(),
            false,
        ),
        ("traced", two_lanes(), spaced(2), true),
        ("pipelined", pipelined, spaced(3), true),
        (
            "batching-on",
            one_lane(true, None),
            with_tenants(&[0, 0, 0, 1, 1, 0]),
            false,
        ),
        (
            "batching-off",
            one_lane(false, None),
            with_tenants(&[0, 0, 0, 1, 1, 0]),
            false,
        ),
        (
            "ordering-on",
            one_lane(true, ordered),
            with_tenants(&[0, 0, 1, 0]),
            false,
        ),
        (
            "ordering-off",
            one_lane(true, None),
            with_tenants(&[0, 0, 1, 0]),
            false,
        ),
        ("overtake", one_lane(false, None), overtake, false),
    ]
}

/// Every case of the contract, as `name digest…` lines in a fixed order.
fn contract_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for seed in [2024u64, 17, 11] {
        let presets = [
            ("clean", SoakConfig::clean(seed)),
            ("chaos", SoakConfig::chaos(seed)),
            (
                "chaos-cancel",
                SoakConfig {
                    cancel: true,
                    ..SoakConfig::chaos(seed)
                },
            ),
        ];
        for (name, base) in &presets {
            for requests in [240usize, 48] {
                let (responses, health, log) = soak(&sized(base, requests));
                lines.push(format!(
                    "soak/{name}/{seed}/{requests} {} {} {}",
                    digest(&responses),
                    digest(&health),
                    digest(&log)
                ));
            }
        }
    }
    for (name, cfg, trace, traced) in hand_built() {
        lines.push(format!(
            "trace/{name} {}",
            digest(&serve(cfg, &trace, traced))
        ));
    }
    let fleets = [
        ("fleet-chaos", SoakConfig::fleet_chaos(2024)),
        ("hedge-chaos", SoakConfig::hedge_chaos(2024)),
        ("batched-fleet", SoakConfig::batched_fleet(2024)),
        ("ordered-fleet", SoakConfig::ordered_fleet(2024)),
        ("batch-hedge-chaos", SoakConfig::batch_hedge_chaos(2024)),
    ];
    for (name, base) in fleets {
        let cfg = SoakConfig {
            requests: 2000,
            ..base
        };
        let out = run_soak_stream(&cfg, None).expect("fleet soak invariants");
        lines.push(format!(
            "fleet/{name}/2000 {} {:016x}",
            digest(&out.summary),
            fnv1a(&out.snapshot_text)
        ));
    }
    lines
}

#[test]
fn serving_contract_digests_are_unchanged() {
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

#[test]
fn ordering_credit_is_priced_at_the_platform_dram_bandwidth() {
    // The `ordering-on` hand trace on the hypothetical 4x-bandwidth A100.
    let platform =
        AnaheimConfig::a100_4x_bandwidth().with_retry_policy(RetryPolicy::serving_default(7));
    let bytes_per_ns = platform.gpu.dram_bw_gbps;
    assert_ne!(bytes_per_ns, 1802.0);
    let cfg = ServingConfig {
        platform,
        ..one_lane(true, Some(OrderingConfig::a100_default()))
    };
    let mut engine = ShardedEngine::new(cfg, ShardConfig::new(1));
    let mut expected_ns = 0.0;
    let mut joiners = 0;
    engine
        .run_stream(
            with_tenants(&[0, 0, 1, 0]),
            |r| {
                if let Outcome::Batched {
                    evk_bytes_saved, ..
                } = r.outcome
                {
                    joiners += 1;
                    expected_ns += evk_bytes_saved as f64 / bytes_per_ns;
                }
            },
            None,
        )
        .expect("hand-built trace serves");
    let shard = engine.snapshots().remove(0);
    assert_eq!(shard.evk.reorders, 1, "the third tenant-0 request joins");
    assert_eq!(joiners, 2);
    assert!(expected_ns > 0.0);
    assert_eq!(shard.evk_saved_ns.to_bits(), expected_ns.to_bits());
}
