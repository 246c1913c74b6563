//! `fleet-chaos`: the `SoakConfig::batch_hedge_chaos` fleet at its preset
//! offered load (open loop in virtual time), replayed unpaced on the host
//! from one lazy `TraceGen` per replay. The traced run also replays it with
//! the program's telemetry attached the way the soak CLI attaches it.
//! `serving`, the health path of `core::schedule` and `obs` do the work.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use anaheim_core::health::{BreakerConfig, HealthRegistry};
use anaheim_core::schedule::Scheduler;
use anaheim_core::{Anaheim, OpSequence, Telemetry};
use obs::StreamingTraceSink;
use serving::soak::{run_soak_stream, shard_config_for, SoakConfig, StreamSummary, TraceGen};
use serving::{
    OrderingConfig, Outcome as Served, Request, Response, ServingConfig, ShardRouter,
    ShardedEngine, StreamObs,
};

use crate::stats::{Outcome, Summary};
use crate::tracer::Tracer;
use crate::{derive_seed, Opts};

/// Scenarios of a run, each the preset at its own soak seed: every one
/// goes through the exact pass and every timed cycle replays them all.
const SCENARIOS: usize = 8;

/// Span-ring capacity the soak CLI attaches.
const SINK_SPANS: usize = 4096;

/// Soak seeds derived from the workload seed. A candidate whose shard storm
/// would target no tenant (no tenant homed on shard 0) is not an instance
/// of this workload and is skipped; that is decided from the router alone,
/// before anything runs.
pub fn scenarios(seed: u64, n: usize) -> Vec<SoakConfig> {
    (0..)
        .map(|i| SoakConfig::batch_hedge_chaos(derive_seed(seed, 1000 + i)))
        .filter(|cfg| {
            let router = ShardRouter::new(shard_config_for(cfg).router_seed, cfg.shards);
            (0..cfg.tenants).any(|t| router.home_shard(t) == 0)
        })
        .take(n)
        .collect()
}

/// The sharded engine `run_soak_stream` builds for `cfg`.
fn engine_for(cfg: &SoakConfig) -> ShardedEngine {
    ShardedEngine::new(
        ServingConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            cancel_over_budget: cfg.cancel,
            batching: cfg.batching,
            ordering: cfg.ordering.then(OrderingConfig::a100_default),
            ..ServingConfig::a100_default(cfg.seed)
        },
        shard_config_for(cfg),
    )
}

/// Sets up a replay of every scenario: the lazy trace generator (its six
/// workload templates and reference cost) and the sharded engine. Returns
/// the seconds taken.
fn setup(cfgs: &[SoakConfig]) -> f64 {
    let t = Instant::now();
    for cfg in cfgs {
        drop(black_box((TraceGen::new(cfg), engine_for(cfg))));
    }
    t.elapsed().as_secs_f64()
}

/// One replay with the program's telemetry attached; returns the summary
/// and the sink's (accepted, written) span counts.
fn replay_traced(cfg: &SoakConfig) -> Result<(StreamSummary, u64, u64), String> {
    let mut tel = Telemetry::new(cfg.seed);
    let mut sink = StreamingTraceSink::new(SINK_SPANS);
    let mut o = StreamObs::new(&mut tel, &mut sink);
    let out = run_soak_stream(cfg, Some(&mut o))?;
    drop(o);
    Ok((out.summary, sink.accepted(), sink.written()))
}

/// Terminal outcome of a response, through the Rerouted/Hedged/Batched
/// wrappers.
fn terminal(r: &Response) -> &Served {
    let mut o = &r.outcome;
    loop {
        o = match o {
            Served::Rerouted { outcome, .. }
            | Served::Hedged { outcome, .. }
            | Served::Batched { outcome, .. } => outcome,
            t => return t,
        };
    }
}

/// What the latency pass over one scenario found.
#[derive(Debug, Default)]
struct Latency {
    submitted: u64,
    on_time: u64,
    /// Arrival-to-finish of every request that finished (virtual ms).
    finished_ms: Vec<f64>,
}

/// Serves `cfg` once through a fresh engine, recording each request's
/// arrival and each response's outcome. Every request must yield exactly
/// one response.
fn latency_pass(cfg: &SoakConfig) -> Result<Latency, String> {
    let arrivals = RefCell::new(vec![f64::NAN; cfg.requests]);
    let gen = TraceGen::new(cfg).inspect(|r: &Request| {
        arrivals.borrow_mut()[r.id as usize] = r.arrival_ns;
    });
    let mut seen = vec![false; cfg.requests];
    let mut lat = Latency::default();
    let mut error = None;
    let mut engine = engine_for(cfg);
    engine
        .run_stream(
            gen,
            |r| {
                let id = r.id as usize;
                if id >= seen.len() || seen[id] {
                    error.get_or_insert(format!("request {id}: not exactly one outcome"));
                    return;
                }
                seen[id] = true;
                lat.submitted += 1;
                let arrival = arrivals.borrow()[id];
                let finish = match *terminal(r) {
                    Served::Completed { finish_ns, .. } => {
                        lat.on_time += 1;
                        Some(finish_ns)
                    }
                    Served::DeadlineMiss { finish_ns, .. }
                    | Served::IntegrityFailure { finish_ns, .. } => Some(finish_ns),
                    _ => None,
                };
                if let Some(f) = finish {
                    lat.finished_ms.push((f - arrival) / 1e6);
                }
            },
            None,
        )
        .map_err(|e| format!("engine error: {e}"))?;
    if let Some(e) = error {
        return Err(e);
    }
    if lat.submitted != cfg.requests as u64 {
        return Err(format!(
            "{} of {} requests got an outcome",
            lat.submitted, cfg.requests
        ));
    }
    Ok(lat)
}

/// Nearest-rank percentile.
fn percentile(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

pub fn run(
    opts: &Opts,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Vec<(&'static str, String)> {
    let width = parpool::num_threads();
    let cfgs = scenarios(opts.seed, SCENARIOS);
    let requests = cfgs[0].requests as f64;

    let mut setups = vec![setup(&cfgs)];

    // Reference replays: run_soak_stream's invariant checker on every
    // scenario, then the latency pass, then scenario 0 again at width 1.
    let mut reference: Vec<Option<StreamSummary>> = Vec::new();
    for cfg in &cfgs {
        let r = run_soak_stream(cfg, None);
        out.check(r.is_ok(), || {
            format!("soak seed {}: {:?}", cfg.seed, r.as_ref().err())
        });
        reference.push(r.ok().map(|o| o.summary));
    }
    let mut on_time = 0u64;
    let mut submitted = 0u64;
    let mut finished = Vec::with_capacity(cfgs.iter().map(|c| c.requests).sum());
    for (cfg, refsum) in cfgs.iter().zip(&reference) {
        match latency_pass(cfg) {
            Ok(l) => {
                out.check(refsum.is_some_and(|s| s.completed == l.on_time), || {
                    format!(
                        "soak seed {}: latency pass disagrees with the soak",
                        cfg.seed
                    )
                });
                on_time += l.on_time;
                submitted += l.submitted;
                finished.extend(l.finished_ms);
            }
            Err(e) => out.check(false, || format!("soak seed {}: {e}", cfg.seed)),
        }
    }
    parpool::set_threads(1);
    let serial = run_soak_stream(&cfgs[0], None).map(|o| o.summary).ok();
    parpool::set_threads(width);
    out.check(serial.is_some() && serial == reference[0], || {
        format!(
            "soak seed {}: summary differs between widths {width} and 1",
            cfgs[0].seed
        )
    });

    match tracer {
        None => {
            // The op is one unpaced replay of a scenario. One sample is the
            // mean over a cycle of every scenario, so each sample covers
            // the same request mix. Set-ups repeat between cycles, so they
            // see the same host conditions as the replays do.
            let mut cycles = Vec::new();
            let start = Instant::now();
            while cycles.len() < 2 || start.elapsed() < opts.seconds {
                let mut total_ms = 0.0;
                for (cfg, want) in cfgs.iter().zip(&reference) {
                    let t = Instant::now();
                    let r = run_soak_stream(cfg, None);
                    total_ms += t.elapsed().as_secs_f64() * 1e3;
                    out.check(r.as_ref().ok().map(|o| o.summary) == *want, || {
                        format!("replay of soak seed {}: {:?}", cfg.seed, r.err())
                    });
                }
                cycles.push(total_ms / cfgs.len() as f64);
                setups.push(setup(&cfgs));
            }
            let vrps: Vec<f64> = reference
                .iter()
                .flatten()
                .map(|s| s.virtual_rps())
                .collect();
            out.value("setup_s", Summary::of(&setups).median);
            out.sampled("op_ms", &cycles);
            out.value("peak_rss_mb", crate::stats::peak_rss_mb());
            out.exact(
                "fleet_ontime_share",
                on_time as f64 / submitted.max(1) as f64,
            );
            out.exact(
                "fleet_p99_virtual_ms",
                if finished.is_empty() {
                    f64::NAN
                } else {
                    percentile(&mut finished, 99.0)
                },
            );
            out.exact(
                "fleet_virtual_rps",
                vrps.iter().sum::<f64>() / vrps.len() as f64,
            );
            out.note(format!(
                "cycles over {} scenarios: {} ({:.0} requests per host second); setup repeats {}",
                cfgs.len(),
                cycles.len(),
                requests / Summary::of(&cycles).median * 1e3,
                setups.len()
            ));
        }
        Some(tr) => traced(tr, &cfgs, &reference, out),
    }
    vec![
        ("op", "one unpaced replay of a scenario".into()),
        ("preset", "SoakConfig::batch_hedge_chaos".into()),
        ("requests_per_replay", cfgs[0].requests.to_string()),
        ("scenarios", cfgs.len().to_string()),
        (
            "soak_seeds",
            cfgs.iter()
                .map(|c| c.seed.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("sink_spans", SINK_SPANS.to_string()),
    ]
}

/// The scheduler alone on the trace's own requests (fault plans included),
/// one health registry per scenario; with `tr`, one span per request.
fn health_pass(cfg: &SoakConfig, mut tr: Option<&mut Tracer>) -> Result<(), String> {
    let platform = ServingConfig::a100_default(cfg.seed).platform;
    let rt = Anaheim::new(platform.clone());
    let dev = platform
        .pim
        .as_ref()
        .ok_or("serving platform has no PIM device")?;
    let mut registry = HealthRegistry::for_device(dev, BreakerConfig::default());
    // The six workload templates, prepared once each (by label).
    let mut prepared: Vec<(&str, OpSequence)> = Vec::new();
    for req in TraceGen::new(cfg) {
        let seq = match prepared.iter().position(|(label, _)| *label == req.label) {
            Some(i) => &prepared[i].1,
            None => {
                let mut s = (*req.seq).clone();
                rt.prepare(&mut s);
                prepared.push((req.label, s));
                &prepared.last().expect("just pushed").1
            }
        };
        let mut s = Scheduler::with_pim(rt.model(), dev, platform.layout)
            .with_retry_policy(platform.retry)
            .with_mode(platform.schedule);
        if let Some(plan) = req.fault {
            s = s.with_fault_plan(plan);
        }
        let r = match tr.as_deref_mut() {
            Some(t) => t.span_req("core.run_with_health", Some(req.id), |_| {
                s.run_with_health(seq, &mut registry)
            }),
            None => s.run_with_health(seq, &mut registry),
        };
        r.map_err(|e| format!("request {}: {e}", req.id))?;
    }
    Ok(())
}

/// Per-layer split of a replay's host time: `run_stream` =
/// `Scheduler::run_with_health` + serving's own remainder (`TraceGen`
/// included); plus what telemetry adds, and the exact fleet counters.
fn traced(
    tr: &mut Tracer,
    cfgs: &[SoakConfig],
    reference: &[Option<StreamSummary>],
    out: &mut Outcome,
) {
    let requests = cfgs[0].requests as f64;
    let mut bare_health = Vec::new();
    let (mut accepted, mut written, mut tel_requests) = (0u64, 0u64, 0u64);
    for (cfg, want) in cfgs.iter().zip(reference) {
        let r = tr.span("serving.replay", |_| run_soak_stream(cfg, None));
        out.check(r.as_ref().ok().map(|o| o.summary) == *want, || {
            format!("replay of soak seed {}: {:?}", cfg.seed, r.err())
        });
        match tr.span("serving.replay_telemetry", |_| replay_traced(cfg)) {
            Ok((s, a, w)) => {
                out.check(Some(s) == *want, || {
                    format!("telemetry changed soak seed {}'s results", cfg.seed)
                });
                accepted += a;
                written += w;
                tel_requests += cfg.requests as u64;
            }
            Err(e) => out.check(false, || e),
        }
        let n = tr.span("serving.tracegen", |_| TraceGen::new(cfg).count());
        out.check(n == cfg.requests, || {
            format!("TraceGen yielded {n} requests")
        });
        let r = tr.span("core.health_pass", |tr| health_pass(cfg, Some(tr)));
        out.check(r.is_ok(), || format!("health pass: {r:?}"));
        let t = Instant::now();
        let r = health_pass(cfg, None);
        bare_health.push(t.elapsed().as_nanos() as f64);
        out.check(r.is_ok(), || format!("health pass: {r:?}"));
    }
    let replay = tr.durations("serving.replay");
    let replay_tel = tr.durations("serving.replay_telemetry");
    let gen = tr.durations("serving.tracegen");
    let passes = tr.durations("core.health_pass");
    // A health pass's children are its `run_with_health` calls, so its
    // duration minus its self time is their total.
    let health: Vec<f64> = passes
        .iter()
        .zip(tr.self_durations("core.health_pass"))
        .map(|(d, own)| d - own)
        .collect();
    let med = |v: &[f64]| Summary::of(v).median;
    // The traced op is the plain replay: `core` is its `run_with_health`
    // calls and `serving` the rest (`TraceGen` included); the benchmark does
    // nothing inside it. Telemetry is measured as what it adds to the op.
    let (plain, whole, health) = (med(&replay), med(&replay_tel), med(&health));
    let core = health / plain;
    out.value("core.share", core);
    out.value("serving.share", 1.0 - core);
    out.value("obs.overhead_share", whole / plain - 1.0);
    out.idle(&[
        "bench.share",
        "ckks-math.share",
        "ckks.share",
        "workloads.share",
        "ckks-math.ntt.share",
        "ckks-math.bconv.share",
        "ckks-math.ew.share",
        "ckks-math.automorphism.share",
        "ckks.ks.mod_up.share",
        "ckks.ks.key_mult.share",
        "ckks.ks.mod_down.share",
        "figures.fig8.share",
        "figures.fig10.share",
        "figures.table5.share",
        "figures.rest.share",
    ]);
    out.sampled(
        "op_ms.traced",
        &replay.iter().map(|ns| ns / 1e6).collect::<Vec<_>>(),
    );
    out.value(
        "trace_overhead_share",
        med(&passes) / med(&bare_health) - 1.0,
    );
    out.exact(
        "obs.spans_per_req",
        accepted as f64 / tel_requests.max(1) as f64,
    );
    out.exact(
        "obs.span_written_share",
        written as f64 / accepted.max(1) as f64,
    );

    let s: Vec<StreamSummary> = reference.iter().flatten().copied().collect();
    let sum = |f: fn(&StreamSummary) -> u64| s.iter().map(f).sum::<u64>() as f64;
    out.exact("serving.faults", sum(|s| s.faults));
    out.exact("serving.breaker_skips", sum(|s| s.breaker_skips));
    out.exact("serving.rerouted", sum(|s| s.rerouted));
    out.exact("serving.cancelled", sum(|s| s.cancelled));
    out.exact("serving.batches", sum(|s| s.batches));
    out.exact(
        "serving.hedge_win_ratio",
        sum(|s| s.hedges_won) / sum(|s| s.hedges_launched).max(1.0),
    );
    out.exact(
        "serving.shed_share",
        sum(|s| s.shed_queue_full + s.shed_infeasible + s.all_shards_unhealthy)
            / sum(|s| s.requests).max(1.0),
    );
    out.exact(
        "serving.evk_saved_share",
        sum(|s| s.evk_saved_bytes) / sum(|s| s.evk_hit_bytes + s.evk_miss_bytes).max(1.0),
    );
    let us = |ns: f64| ns / 1e3 / requests;
    out.note(format!(
        "per request: tracegen {:.3} + run_with_health {:.3} + serving rest {:.3} = run_stream \
         {:.3} us; + telemetry {:.3} = {:.3} us ({} replays)",
        us(med(&gen)),
        us(health),
        us(plain - med(&gen) - health),
        us(plain),
        us(whole - plain),
        us(whole),
        replay.len()
    ));
}
