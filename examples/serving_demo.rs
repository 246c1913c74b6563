//! Serving-layer demo: deadline-aware admission, per-bank circuit
//! breakers, and graceful degradation under injected faults.
//!
//! Run with: `cargo run --release --example serving_demo`
//!
//! Part 1 hand-builds a small multi-tenant trace (three priority classes,
//! one request dragging a hard PIM fault along) and serves it on one
//! engine — a one-shard fleet — printing each typed outcome and the final
//! bank-health snapshot. Part 2 runs the seeded chaos soak the CI harness
//! uses (`scripts/soak.sh`) at a reduced request count.

use anaheim::core::build::Builder;
use anaheim::core::params::ParamSet;
use anaheim::pim::FaultPlan;
use anaheim::serving::soak::{run_soak_stream, SoakConfig};
use anaheim::serving::{Outcome, Priority, Request, ServingConfig, ShardConfig, ShardedEngine};

fn main() {
    // --- Part 1: a hand-built trace through the engine API.
    let mut b = Builder::new(ParamSet::paper_default());
    let heavy =
        std::sync::Arc::new(b.lintrans(24, 6, anaheim::core::build::LinTransStyle::Hoisting, true));
    let light = std::sync::Arc::new(b.hmult(24));

    let mut engine = ShardedEngine::new(ServingConfig::a100_default(2024), ShardConfig::new(1));
    // Reference cost for picking arrivals/deadlines in virtual ns.
    let t_ref = 2_000_000.0;

    let mut trace = Vec::new();
    for (id, (tenant, priority, seq, label, fault)) in [
        // Tenant 0 streams interactive multiplies with tight deadlines.
        (0u32, Priority::Interactive, &light, "hmult", None),
        (0, Priority::Interactive, &light, "hmult", None),
        // Tenant 1 runs a heavy batch transform — loose deadline.
        (1, Priority::Batch, &heavy, "lintrans", None),
        // Tenant 2's request carries a hard fault: a stuck MMAC lane. The
        // owning bank's breaker opens and the kernel lands on the GPU.
        (
            2,
            Priority::Standard,
            &heavy,
            "lintrans+stuck-lane",
            Some(FaultPlan::none().with_seed(9).with_stuck_lane(3)),
        ),
        // Tenant 3 arrives behind everyone with an infeasible deadline —
        // admission control sheds it instead of letting it expire queued.
        (3, Priority::Standard, &light, "hmult-late", None),
    ]
    .into_iter()
    .enumerate()
    {
        let arrival = id as f64 * 0.2 * t_ref;
        let slack = match (priority, label) {
            (_, "hmult-late") => 0.05 * t_ref,
            (Priority::Interactive, _) => 3.0 * t_ref,
            (Priority::Standard, _) => 6.0 * t_ref,
            (Priority::Batch, _) => 20.0 * t_ref,
        };
        trace.push(Request {
            id: id as u64,
            tenant,
            priority,
            arrival_ns: arrival,
            deadline_ns: arrival + slack,
            seq: std::sync::Arc::clone(seq),
            fault,
            label,
        });
    }

    println!("serving {} requests from 4 tenants:\n", trace.len());
    // Responses arrive in execution order; sort them back into trace order.
    let mut responses = Vec::new();
    engine
        .run_stream(trace, |r| responses.push(r.clone()), None)
        .expect("trace serves");
    responses.sort_by_key(|r| r.id);
    for r in &responses {
        let verdict = match &r.outcome {
            Outcome::Completed {
                finish_ns,
                deadline_ns,
                faults,
                breaker_skips,
                ..
            } => format!(
                "ok at {:.2} ms (deadline {:.2} ms, {} fault(s), {} breaker skip(s))",
                finish_ns / 1e6,
                deadline_ns / 1e6,
                faults,
                breaker_skips
            ),
            Outcome::DeadlineMiss {
                finish_ns,
                deadline_ns,
                ..
            } => format!(
                "MISSED deadline ({:.2} ms > {:.2} ms)",
                finish_ns / 1e6,
                deadline_ns / 1e6
            ),
            Outcome::Cancelled {
                consumed_ns,
                segments_done,
                ..
            } => format!(
                "CANCELLED over budget after {:.2} ms ({segments_done} segment(s))",
                consumed_ns / 1e6
            ),
            Outcome::IntegrityFailure { finish_ns, .. } => format!(
                "INTEGRITY FAILURE at {:.2} ms (corrupted result, not a success)",
                finish_ns / 1e6
            ),
            Outcome::Rejected(why) => format!("shed: {why}"),
            Outcome::Rerouted {
                from_shard,
                to_shard,
                ..
            } => format!("rerouted shard {from_shard} -> {to_shard}"),
            Outcome::Hedged {
                winner,
                loser_consumed_ns,
                ..
            } => format!(
                "hedged: shard {winner} won ({:.2} ms wasted on the loser)",
                loser_consumed_ns / 1e6
            ),
            Outcome::Batched {
                evk_bytes_saved, ..
            } => format!(
                "batched: joined the running same-tenant batch ({:.1} MB of evk fetches saved)",
                *evk_bytes_saved as f64 / 1e6
            ),
        };
        println!(
            "  req {} tenant {} {:11} {:20} -> {verdict}",
            r.id, r.tenant, r.priority, r.label
        );
    }

    let snap = engine.snapshots().remove(0).health;
    println!("\nbank health after the trace:");
    for bank in &snap.banks {
        println!(
            "  bank {}: {}{}",
            bank.bank,
            bank.state,
            if bank.permanent { " (permanent)" } else { "" }
        );
    }
    println!(
        "  {} PIM fault(s) absorbed, {} GPU fallback(s), {} breaker skip(s)",
        snap.counters.faults_detected, snap.counters.gpu_fallbacks, snap.counters.breaker_skips
    );

    // --- Part 2: the seeded chaos soak, scaled down.
    let cfg = SoakConfig {
        requests: 60,
        stuck_window: Some((20, 30)),
        ..SoakConfig::chaos(2024)
    };
    println!(
        "\nchaos soak: {} mixed requests, seed {}, fault storms + a stuck lane...",
        cfg.requests, cfg.seed
    );
    let out = run_soak_stream(&cfg, None).expect("all invariants hold");
    println!("  {}", out.summary);
    println!("  every outcome typed, every completion inside its deadline.");
}
