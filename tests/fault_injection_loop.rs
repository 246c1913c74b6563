//! The full robustness loop, end to end: an injected PIM bank fault is
//! caught by the residue checksum, the block is re-executed on the trusted
//! (GPU) path, the workload completes with correct values, and the
//! execution report records the degradation — the acceptance scenario of
//! the reliability design (DESIGN.md, "Reliability & fault model" and
//! "Serving & degradation").

use anaheim::core::framework::{Anaheim, AnaheimConfig};
use anaheim::core::health::{BreakerState, HealthRegistry};
use anaheim::core::schedule::MAX_PIM_RETRIES;
use anaheim::pim::bankexec::{alloc_paccum_groups, paccum_alg1_verified, ELEMS_PER_CHUNK};
use anaheim::pim::{
    FaultInjector, FaultPlan, LayoutPolicy, MontgomeryCtx, PimError, PimInstruction, PimUnit,
    PolyGroupAllocator, SimulatedBank,
};
use anaheim::workloads::catalog::Workload;
use anaheim::workloads::runner::run_workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const Q: u32 = 268369921;

fn random_poly(c: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..c * ELEMS_PER_CHUNK)
        .map(|_| rng.gen_range(0..Q))
        .collect()
}

#[test]
fn bank_fault_is_detected_and_gpu_reexecution_recovers() {
    // --- Functional half of the loop: data goes through the simulated
    // bank, a cell bit flips, the post-kernel checksum catches it, and the
    // trusted path recomputes the correct answer from pristine inputs.
    let (k, c, b) = (4usize, 16usize, 16usize);
    let mut rng = StdRng::seed_from_u64(301);
    let ps: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
    let aas: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
    let bs: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
    let mont = MontgomeryCtx::new(Q);

    let store_all = |bank: &mut SimulatedBank, pg_p: &_, pg_ab: &_| {
        for i in 0..k {
            bank.store_poly(pg_p, i, &ps[i]).unwrap();
            bank.store_poly(pg_ab, 2 * i, &aas[i]).unwrap();
            bank.store_poly(pg_ab, 2 * i + 1, &bs[i]).unwrap();
        }
    };

    // 1) Fault-free run: the golden outputs.
    let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
    let (pg_p, pg_ab, pg_out) = alloc_paccum_groups(&mut alloc, k, c);
    let mut bank = SimulatedBank::new(64, 32);
    store_all(&mut bank, &pg_p, &pg_ab);
    paccum_alg1_verified(&mut bank, &mont, k, b, &pg_p, &pg_ab, &pg_out, None)
        .expect("clean run passes its own integrity check");
    let golden = (bank.load_poly(&pg_out, 0), bank.load_poly(&pg_out, 1));

    // 2) Faulty run: a guaranteed bank bit flip must be *detected*, not
    // silently returned.
    let mut bank = SimulatedBank::new(64, 32);
    store_all(&mut bank, &pg_p, &pg_ab);
    let mut inj = FaultInjector::new(FaultPlan::none().with_seed(7).with_bank_flips(1.0));
    let err = paccum_alg1_verified(
        &mut bank,
        &mont,
        k,
        b,
        &pg_p,
        &pg_ab,
        &pg_out,
        Some(&mut inj),
    )
    .expect_err("an injected bit flip must trip the integrity check");
    match err {
        PimError::IntegrityViolation(report) => {
            assert!(report.bit_flips > 0, "the flip must be attributed");
            assert!(!report.is_permanent(), "a bit flip is transient");
        }
        other => panic!("expected IntegrityViolation, got {other}"),
    }

    // 3) Recovery: the GPU path recomputes from its own pristine copy.
    let unit = PimUnit::new(Q, 32);
    let mut refs: Vec<&[u32]> = Vec::new();
    refs.extend(aas.iter().map(|v| v.as_slice()));
    refs.extend(bs.iter().map(|v| v.as_slice()));
    refs.extend(ps.iter().map(|v| v.as_slice()));
    let recovered = unit.execute(PimInstruction::PAccum(k), &refs, &[]);
    assert_eq!(
        recovered[0], golden.0,
        "GPU re-execution must match golden x"
    );
    assert_eq!(
        recovered[1], golden.1,
        "GPU re-execution must match golden y"
    );
}

#[test]
fn degraded_workload_completes_and_reports_retries() {
    // --- Scheduler half of the loop: the same fault class at the platform
    // level. Every PIM attempt faults (p = 1), so each kernel burns its
    // retries and lands on the GPU; the workload still completes and the
    // report itemizes the degradation.
    let plan = FaultPlan::none().with_seed(41).with_bank_flips(1.0);
    let rt = Anaheim::new(AnaheimConfig::a100_near_bank().with_fault_plan(plan));
    let w = Workload::boot();
    let r = run_workload(&rt, &w).expect("degraded runs must still complete");
    let nums = r.outcome.expect("Boot fits on the A100");

    assert!(nums.faults_detected > 0, "faults at p=1 must be detected");
    assert!(nums.pim_retries > 0, "transient faults must be retried");
    assert!(nums.degraded_segments > 0, "degradation must be recorded");
    // Each kernel takes 1 + MAX_PIM_RETRIES faulty PIM attempts.
    assert_eq!(
        nums.faults_detected,
        nums.pim_retries / MAX_PIM_RETRIES as u64 * (1 + MAX_PIM_RETRIES as u64),
        "retry accounting must be consistent"
    );

    // Degradation costs time but never correctness or completion: the
    // degraded run is strictly slower than the clean one, and slower than
    // the GPU-only baseline it falls back to (wasted PIM attempts are paid).
    let clean = run_workload(&Anaheim::new(AnaheimConfig::a100_near_bank()), &w)
        .unwrap()
        .outcome
        .unwrap();
    let gpu_only = run_workload(&Anaheim::new(AnaheimConfig::a100_baseline()), &w)
        .unwrap()
        .outcome
        .unwrap();
    assert_eq!(clean.faults_detected, 0);
    assert!(nums.time_ms > clean.time_ms, "faults must cost time");
    assert!(
        nums.time_ms > gpu_only.time_ms,
        "wasted PIM attempts make degraded mode slower than never offloading"
    );
}

#[test]
fn degraded_platform_still_serves_correct_decrypted_values() {
    // --- Serving-stack view: while the platform model degrades under
    // faults (timing, energy, report), the cryptographic pipeline the
    // client sees still decrypts to the right values — degradation is a
    // performance event, never a correctness event.
    use anaheim::ckks::prelude::*;
    use anaheim::ckks::serial::{deserialize_ciphertext, serialize_ciphertext};

    let plan = FaultPlan::none().with_seed(43).with_bank_flips(0.5);
    let rt = Anaheim::new(AnaheimConfig::a100_near_bank().with_fault_plan(plan));
    let report = run_workload(&rt, &Workload::boot())
        .expect("degraded runs complete")
        .outcome
        .expect("Boot fits");
    assert!(
        report.degraded_segments > 0,
        "this run must actually degrade"
    );

    let ctx = CkksContext::new(CkksParams::test_small());
    let mut rng = StdRng::seed_from_u64(303);
    let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[]);
    let enc = Encoder::new(&ctx);
    let vals: Vec<f64> = (0..ctx.slots())
        .map(|i| 0.4 - (i % 5) as f64 * 0.1)
        .collect();
    let msg: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let ct = keys
        .public
        .encrypt(&enc.encode(&msg, ctx.max_level()), &mut rng);
    let wire = serialize_ciphertext(&ct);

    // Server: square under the noise guard, ship back.
    let received = deserialize_ciphertext(&ctx, &wire).expect("valid wire");
    let gv = GuardedEvaluator::new(&ctx, 8.0);
    let t = gv.track_fresh(received, 0.4);
    let squared = gv
        .square_rescale(&t, &keys.relin)
        .expect("budget allows depth 1");
    let reply = serialize_ciphertext(&squared.ct);

    // Client: the decrypted values are correct.
    let back = deserialize_ciphertext(&ctx, &reply).expect("valid reply");
    let out = enc.decode(&keys.secret.decrypt(&back));
    for (j, &v) in vals.iter().enumerate() {
        assert!(
            (out[j].re - v * v).abs() < 1e-3,
            "slot {j}: want {}, got {}",
            v * v,
            out[j].re
        );
    }
}

#[test]
fn stuck_lane_trips_breaker_and_soak_completes_on_gpu() {
    // --- Breaker-aware soak: a *persistent* hard fault (stuck MMAC lane)
    // must not burn retries forever. Under a health registry, the owning
    // bank domain's breaker opens permanently after the failure threshold,
    // later kernels route straight to the GPU, and every other domain
    // stays closed — a sick bank degrades throughput, never availability.
    use anaheim::core::schedule::RunOptions;
    use anaheim::workloads::runner::run_workload_with;

    let plan = FaultPlan::none().with_seed(53).with_stuck_lane(2);
    let cfg = AnaheimConfig::a100_near_bank().with_fault_plan(plan);
    let mut reg = HealthRegistry::for_device(
        cfg.pim.as_ref().expect("near-bank platform has PIM"),
        Default::default(),
    );
    let rt = Anaheim::new(cfg);

    // Soak the registry across a whole multi-segment workload: the trip
    // happens early and the rest of the run rides the open breaker.
    let w = Workload::helr();
    let opts = RunOptions {
        health: Some(&mut reg),
        ..RunOptions::default()
    };
    let nums = run_workload_with(&rt, &w, opts)
        .expect("a stuck lane must degrade, not abort")
        .outcome
        .expect("HELR fits on the A100");

    let snap = reg.snapshot();
    let sick: Vec<_> = snap
        .banks
        .iter()
        .filter(|b| b.state == BreakerState::Open)
        .collect();
    assert_eq!(sick.len(), 1, "exactly the owning domain opens");
    assert!(sick[0].permanent, "a hard fault opens the breaker for good");
    assert!(
        snap.banks
            .iter()
            .filter(|b| b.bank != sick[0].bank)
            .all(|b| b.state == BreakerState::Closed && b.trips == 0),
        "healthy domains must be untouched"
    );

    // The trip is visible in the log (closed -> open, attributed to the
    // stuck lane) and the run completed degraded, not dead.
    let trip = reg
        .transitions()
        .iter()
        .find(|t| t.to == BreakerState::Open)
        .expect("the trip must be logged");
    assert_eq!(trip.bank, sick[0].bank);
    assert_eq!(trip.cause, "stuck-lane");
    assert!(nums.breaker_skips > 0, "open breaker must be routed around");
    assert!(
        nums.pim_retries == 0,
        "hard faults must not be retried on the sick bank"
    );
    assert!(nums.time_ms > 0.0 && nums.time_ms.is_finite());

    // The clean share of the fleet keeps earning its keep: the degraded
    // near-bank run still beats the GPU-only baseline.
    let gpu_only = run_workload(&Anaheim::new(AnaheimConfig::a100_baseline()), &w)
        .unwrap()
        .outcome
        .unwrap();
    assert!(
        nums.time_ms < gpu_only.time_ms * 1.2,
        "one sick bank of several must not erase the PIM win: degraded {} ms vs GPU-only {} ms",
        nums.time_ms,
        gpu_only.time_ms
    );
}

#[test]
fn same_seed_and_plan_give_byte_identical_reports() {
    // Determinism regression: fault injection is seeded, so two runs with
    // the same plan must agree to the last field — the property that makes
    // fault scenarios reproducible in CI.
    let plan = FaultPlan::none()
        .with_seed(97)
        .with_bank_flips(0.3)
        .with_cmd_drops(0.1);
    let mut b =
        anaheim::core::build::Builder::new(anaheim::core::params::ParamSet::paper_default());
    let seq = b.bootstrap();
    let run = || {
        Anaheim::new(AnaheimConfig::a100_near_bank().with_fault_plan(plan))
            .run(seq.clone())
            .expect("degraded runs complete")
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(
        format!("{r1:?}"),
        format!("{r2:?}"),
        "same seed + plan must reproduce the exact report"
    );
    assert!(r1.faults_detected > 0, "the plan must actually fire");
}
