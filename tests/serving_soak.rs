//! Acceptance tests for the deadline-aware serving layer (DESIGN.md,
//! "Serving & degradation"): a seeded chaos soak over ≥200 mixed-workload
//! requests completes with every invariant intact, overload sheds with
//! typed rejections instead of stalling, and the whole run — responses,
//! health snapshot, and breaker transition log — is bit-identical across
//! `ANAHEIM_THREADS` settings. The fleet tests hold the same bar for the
//! sharded streaming soak: failover fires (a shard drains, its tenants
//! re-route, a probe re-admits it) and the per-shard snapshot text is
//! byte-identical across thread counts.

use anaheim::serving::soak::{
    run_soak_stream, run_soak_stream_with, serving_config_for, SoakConfig, StreamOutcome, TraceGen,
};
use anaheim::serving::{Outcome, Rejected, Response, ShardConfig, ShardState, ShardedEngine};

/// The single-engine soak (a one-shard fleet), its invariants checked:
/// the outcome plus every response, sorted by id.
fn soak_with_responses(cfg: &SoakConfig) -> Result<(StreamOutcome, Vec<Response>), String> {
    let mut responses = Vec::new();
    let out = run_soak_stream_with(cfg, None, |r| responses.push(r.clone()))?;
    responses.sort_by_key(|r| r.id);
    Ok((out, responses))
}

#[test]
fn chaos_soak_over_200_requests_holds_all_invariants() {
    let cfg = SoakConfig::chaos(2024);
    assert!(cfg.requests >= 200, "acceptance floor is 200 requests");

    let (out, responses) = soak_with_responses(&cfg).expect("soak invariants");
    let summary = out.summary;
    let snapshot = &out.snapshots[0].health;

    // Every response is an honest, typed outcome; in particular no request
    // that expired returns Ok (the soak invariants prove it, but the claim
    // is what the soak must show, so spell it out).
    for r in &responses {
        if let Outcome::Completed {
            finish_ns,
            deadline_ns,
            ..
        } = r.outcome
        {
            assert!(
                finish_ns <= deadline_ns,
                "request {} completed past its deadline",
                r.id
            );
        }
    }

    // The chaos schedule actually bites: faults absorbed, breakers
    // exercised, and the stuck-lane window kills exactly one bank domain
    // while the fleet keeps serving.
    assert!(summary.completed > 0);
    assert!(summary.faults > 0, "fault storms must fire");
    assert!(snapshot.transitions > 0, "breakers must cycle");
    assert_eq!(summary.dead_banks, 1, "the stuck lane kills one domain");
    assert!(
        snapshot.open_banks() < snapshot.banks.len(),
        "a sick bank must never take the whole fleet down"
    );
}

#[test]
fn sustained_overload_sheds_with_typed_rejections() {
    // Crank arrival pressure far past capacity: admission control must
    // answer every request — completions for what fits, typed rejections
    // for what doesn't — and the queue bound must hold throughout.
    let cfg = SoakConfig {
        arrival_factor: 0.05,
        ..SoakConfig::clean(11)
    };
    let (out, responses) = soak_with_responses(&cfg).expect("overload must shed, not fail");
    let summary = out.summary;
    assert!(
        summary.shed_queue_full + summary.shed_infeasible > 0,
        "overload must shed"
    );
    let typed_sheds = responses
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                Outcome::Rejected(Rejected::QueueFull)
                    | Outcome::Rejected(Rejected::DeadlineInfeasible)
            )
        })
        .count() as u64;
    assert_eq!(
        typed_sheds,
        summary.shed_queue_full + summary.shed_infeasible
    );
    assert!(
        out.snapshots[0].health.counters.max_queue_depth <= cfg.queue_capacity as u64,
        "backpressure must respect the queue bound"
    );
}

#[test]
fn soak_outcome_is_bit_identical_across_thread_counts() {
    // Same fault seed + trace ⇒ identical responses, identical health
    // snapshot, and an identical breaker transition log, whether request
    // preparation runs on 1 worker thread or 8. This is the determinism
    // contract that makes chaos runs reproducible in CI.
    let cfg = SoakConfig::chaos(77);
    let mut outcomes = Vec::new();
    for threads in [1usize, 8] {
        parpool::set_threads(threads);
        outcomes.push((threads, soak_with_responses(&cfg).expect("soak invariants")));
    }
    parpool::set_threads(0);

    let (_, (baseline, baseline_responses)) = &outcomes[0];
    for (threads, (out, responses)) in &outcomes[1..] {
        assert_eq!(
            responses, baseline_responses,
            "responses differ at {threads} thread(s)"
        );
        assert_eq!(
            out.snapshots[0].health, baseline.snapshots[0].health,
            "health snapshot differs at {threads} thread(s)"
        );
        assert_eq!(
            out.snapshots[0].breaker_log, baseline.snapshots[0].breaker_log,
            "breaker transition log differs at {threads} thread(s)"
        );
        assert_eq!(
            out.snapshots, baseline.snapshots,
            "soak outcome depends on thread count"
        );
    }
}

#[test]
fn lone_replica_never_drains() {
    // A one-shard fleet has no sibling to take a draining shard's tenants,
    // so a drain could only turn its traffic into fleet-wide rejections:
    // `ShardConfig::new(1)` never drains, however sick its banks get.
    let cfg = SoakConfig::chaos(2024);
    let mut engine = ShardedEngine::new(serving_config_for(&cfg), ShardConfig::new(1));
    let mut all_unhealthy = 0;
    engine
        .run_stream(
            TraceGen::new(&cfg),
            |r| {
                if r.outcome == Outcome::Rejected(Rejected::AllShardsUnhealthy) {
                    all_unhealthy += 1;
                }
            },
            None,
        )
        .expect("chaos soak serves");
    assert_eq!(engine.snapshots()[0].counters.drains, 0);
    assert_eq!(all_unhealthy, 0);
    assert_eq!(engine.fleet().rejected_all_unhealthy, 0);
}

/// The CI fleet configuration at a request count that keeps the test fast
/// (`scripts/check.sh` runs the full million-request gate).
fn fleet_cfg() -> SoakConfig {
    SoakConfig {
        requests: 2_000,
        ..SoakConfig::fleet_chaos(2024)
    }
}

#[test]
fn fleet_stream_soak_fails_over_and_recovers() {
    let cfg = fleet_cfg();
    let out = run_soak_stream(&cfg, None).expect("fleet soak invariants");
    let s = &out.summary;

    // The shard storm actually bites and failover runs its full cycle:
    // at least one shard drains, its tenants land elsewhere as honest
    // Rerouted outcomes, and a probe brings the shard back up.
    assert!(s.completed > 0, "the fleet must keep serving");
    assert!(s.drains >= 1, "the storm must drain a shard");
    assert!(s.readmits >= 1, "a drained shard must re-admit");
    assert!(s.rerouted >= 1, "drained tenants must be re-routed");
    assert!(s.faults > 0, "fault storms must fire");

    // Recovery is visible in the lifecycle log: some shard walked
    // draining → cooling → probation and back to up via a good probe.
    assert_eq!(out.snapshots.len(), cfg.shards as usize);
    assert!(
        out.snapshots
            .iter()
            .any(|sn| sn.transitions.iter().any(|t| t.cause == "probe-ok")),
        "at least one probe must succeed"
    );
    // Every shard ends the run serving again — no shard is wedged in a
    // drain it never leaves.
    for sn in &out.snapshots {
        assert_eq!(sn.state, ShardState::Up, "shard {} stuck", sn.shard);
    }
}

#[test]
fn fleet_stream_soak_is_bit_identical_across_thread_counts() {
    // The sharded streaming path keeps the same determinism contract as
    // the batch soak: all routing, breaker, and lifecycle decisions run
    // on serial virtual-time lanes, so the rendered per-shard snapshot
    // text — the artifact scripts/check.sh byte-compares — cannot depend
    // on `ANAHEIM_THREADS`.
    let cfg = fleet_cfg();
    let mut outcomes = Vec::new();
    for threads in [1usize, 8] {
        parpool::set_threads(threads);
        outcomes.push((threads, run_soak_stream(&cfg, None).expect("fleet soak")));
    }
    parpool::set_threads(0);

    let (_, baseline) = &outcomes[0];
    for (threads, out) in &outcomes[1..] {
        assert_eq!(
            out.summary, baseline.summary,
            "stream summary differs at {threads} thread(s)"
        );
        assert_eq!(
            out.snapshot_text, baseline.snapshot_text,
            "snapshot text differs at {threads} thread(s)"
        );
        assert_eq!(
            out.snapshots, baseline.snapshots,
            "shard snapshots differ at {threads} thread(s)"
        );
    }
}
