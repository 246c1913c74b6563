//! Bit-exact serial-vs-parallel equivalence for the limb-parallel hot path.
//!
//! The `parpool` worker count must be a pure throughput knob: every CKKS
//! primitive — NTT batches, key switching, rescaling, and whole
//! bootstrap-shaped circuits — must produce bit-identical polynomials and
//! identical op counts at every thread count. These tests sweep
//! `parpool::set_threads` over {1, 2, 8} and compare against the serial
//! baseline. Run them under different `ANAHEIM_THREADS` values too
//! (`scripts/check.sh` does both 1 and 8): the env var sets the *starting*
//! count, and `set_threads` overrides it per sweep point.

use anaheim::ckks::keys::KeyGenerator;
use anaheim::ckks::keyswitch::KeySwitcher;
use anaheim::ckks::opcount::{self, OpCounts};
use anaheim::ckks::prelude::*;
use anaheim::math::modulus::Modulus;
use anaheim::math::ntt::NttContext;
use anaheim::math::poly::{Format, Poly};
use anaheim::math::prime::generate_ntt_primes;
use anaheim::math::rns::{rescale_in_place, ModDown};
use anaheim::math::sampling;
use anaheim::math::tune::{self, Profile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};

/// Serializes access to the global parpool thread-count override.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

struct Fixture {
    ctx: CkksContext,
    keys: KeySet,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(10)
                .levels(6)
                .alpha(2)
                .scale_bits(40)
                .build(),
        );
        let mut rng = StdRng::seed_from_u64(4242);
        let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[1, 2]);
        Fixture { ctx, keys }
    })
}

fn poly_data(p: &Poly) -> Vec<Vec<u64>> {
    (0..p.num_limbs())
        .map(|i| p.limb(i).data().to_vec())
        .collect()
}

fn ct_data(ct: &Ciphertext) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    (poly_data(ct.b()), poly_data(ct.a()))
}

/// Runs `f` serially, then at 2 and 8 threads, asserting bit-identical
/// results (including op counts) at every width.
fn assert_thread_invariant<R: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> R) {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let counted = |f: &dyn Fn() -> R| -> (R, OpCounts) {
        let before = opcount::snapshot();
        let r = f();
        (r, opcount::snapshot().since(&before))
    };
    parpool::set_threads(1);
    let want = counted(&f);
    for threads in [2usize, 8] {
        parpool::set_threads(threads);
        let got = counted(&f);
        assert!(
            got == want,
            "{what} diverged from serial at {threads} threads"
        );
    }
    parpool::set_threads(0);
}

/// The tuner profiles the ring sweeps exercise: forced-serial, forced
/// fan-out-everything, and the host defaults. Together with the thread
/// sweep this covers both sides of every cost-model decision: a profile
/// may only change *scheduling*, never results.
fn sweep_profiles() -> [(&'static str, Profile); 3] {
    [
        ("serial", Profile::serial()),
        ("max_parallel", Profile::max_parallel()),
        ("default", Profile::default_seeded()),
    ]
}

/// Runs `f` under the serial profile at 1 thread, then under every
/// profile × thread-count combination, asserting bit-identical results.
/// Restores the seeded default profile afterwards.
fn assert_profile_and_thread_invariant<R: PartialEq + std::fmt::Debug>(
    what: &str,
    f: impl Fn() -> R,
) {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tune::set_profile(Profile::serial());
    parpool::set_threads(1);
    let want = f();
    for (pname, profile) in sweep_profiles() {
        tune::set_profile(profile);
        for threads in [1usize, 2, 8] {
            parpool::set_threads(threads);
            let got = f();
            assert!(
                got == want,
                "{what} diverged under profile {pname} at {threads} threads"
            );
        }
    }
    tune::reset_profile();
    parpool::set_threads(0);
}

/// An NTT/elementwise/automorphism/BConv/rescale workout over one ring,
/// touching every tuned fan-out path in `ckks-math` (including the ModDown
/// INTT and NTT batches whose gates used to be asymmetric). Returns all
/// limb data so the sweep can compare bit-for-bit.
fn math_workout(log_n: u32, levels: usize) -> Vec<Vec<Vec<u64>>> {
    let n = 1usize << log_n;
    let alpha = 2usize;
    let basis: Vec<Arc<NttContext>> = generate_ntt_primes(45, levels + alpha, 2 * n as u64)
        .into_iter()
        .map(|q| Arc::new(NttContext::new(n, Modulus::new(q))))
        .collect();
    let (q_basis, p_basis) = basis.split_at(levels);
    let mod_down = ModDown::new(q_basis, p_basis);
    let coeffs: Vec<i64> = (0..n as i64).map(|i| (i * 31 + 7) % 997 - 498).collect();
    let other: Vec<i64> = (0..n as i64).map(|i| (i * 17 + 3) % 991 - 495).collect();

    let mut x = Poly::from_coeff_i64(q_basis, &coeffs);
    let y = Poly::from_coeff_i64(q_basis, &other);
    x.add_assign(&y);
    let mut s = x.subbed(&y);
    s.to_eval();
    let mut ye = y.duplicate();
    ye.to_eval();
    s.mul_assign(&ye);
    s.mac_assign(&ye, &ye);
    let rot = s.automorphism(5);
    let mut sum = rot.added(&s);
    let mut rescaled = sum.duplicate();
    rescale_in_place(&mut rescaled);
    // ModDown input: limbs over Q ‖ P in the evaluation domain.
    let mut full = Poly::from_coeff_i64(&basis, &coeffs);
    full.to_eval();
    let down = mod_down.apply(&full);
    sum.to_coeff();
    [sum, rescaled, down]
        .iter()
        .map(|p| {
            (0..p.num_limbs())
                .map(|i| p.limb(i).data().to_vec())
                .collect()
        })
        .collect()
}

#[test]
fn tuned_paths_match_serial_across_rings_and_profiles() {
    // Ring sizes spanning the tuner's decision boundary: at 2^10 the model
    // keeps everything serial, by 2^13 NTT batches fan out under the
    // max_parallel profile. (The paper-scale rings 2^14..2^16 run the same
    // sweep in the #[ignore]d test below — too slow for a debug-mode CI
    // pass.)
    for (log_n, levels) in [(10u32, 4usize), (12, 6), (13, 3)] {
        assert_profile_and_thread_invariant(&format!("math workout n=2^{log_n}"), || {
            math_workout(log_n, levels)
        });
    }
}

#[test]
#[ignore = "paper-scale rings; run with --ignored (release profile recommended)"]
fn tuned_paths_match_serial_at_paper_rings() {
    for (log_n, levels) in [(14u32, 4usize), (15, 4), (16, 3)] {
        assert_profile_and_thread_invariant(&format!("math workout n=2^{log_n}"), || {
            math_workout(log_n, levels)
        });
    }
}

#[test]
fn keyswitch_is_profile_invariant() {
    // The digit fan-out (chunked pool jobs + shared op-count sink) must
    // produce identical polynomials AND identical op-count totals under
    // every profile × thread combination.
    let fix = fixture();
    let level = fix.ctx.max_level();
    let mut rng = StdRng::seed_from_u64(7);
    let a = sampling::uniform(&mut rng, fix.ctx.basis_q(level), Format::Eval);
    let ks = KeySwitcher::new(&fix.ctx);
    assert_profile_and_thread_invariant("key switch (profiles)", || {
        let before = opcount::snapshot();
        let (b, sa) = ks.switch(&a, &fix.keys.relin, level);
        (
            poly_data(&b),
            poly_data(&sa),
            opcount::snapshot().since(&before),
        )
    });
}

#[test]
fn ntt_roundtrip_is_thread_invariant() {
    let fix = fixture();
    let level = fix.ctx.max_level();
    let mut rng = StdRng::seed_from_u64(1);
    let base = sampling::uniform(&mut rng, fix.ctx.basis_q(level), Format::Coeff);
    assert_thread_invariant("NTT round-trip", || {
        let mut p = base.duplicate();
        p.to_eval();
        let eval_data = poly_data(&p);
        p.to_coeff();
        (eval_data, poly_data(&p))
    });
}

#[test]
fn keyswitch_is_thread_invariant() {
    let fix = fixture();
    let level = fix.ctx.max_level();
    let mut rng = StdRng::seed_from_u64(2);
    let a = sampling::uniform(&mut rng, fix.ctx.basis_q(level), Format::Eval);
    let ks = KeySwitcher::new(&fix.ctx);
    assert_thread_invariant("key switch", || {
        let (b, sa) = ks.switch(&a, &fix.keys.relin, level);
        (poly_data(&b), poly_data(&sa))
    });
}

#[test]
fn rescale_is_thread_invariant() {
    let fix = fixture();
    let eval = Evaluator::new(&fix.ctx);
    let enc = Encoder::new(&fix.ctx);
    let mut rng = StdRng::seed_from_u64(3);
    let msg: Vec<Complex> = (0..fix.ctx.slots())
        .map(|i| Complex::new((i as f64).sin() * 0.3, 0.0))
        .collect();
    let pt = enc.encode(&msg, fix.ctx.max_level());
    let ct = fix.keys.public.encrypt(&pt, &mut rng);
    let prod = {
        let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        parpool::set_threads(1);
        let p = eval.mul_relin(&ct, &ct, &fix.keys.relin);
        parpool::set_threads(0);
        p
    };
    assert_thread_invariant("rescale", || ct_data(&eval.rescale(&prod)));
}

#[test]
fn bootstrap_shaped_circuit_is_thread_invariant() {
    // A keyswitch-heavy circuit with the op mix of CoeffToSlot/EvalMod
    // rounds: multiply + relinearize, rescale, rotate, conjugate-free
    // additions — the exact path where limb, digit, and key-switch
    // parallelism all compose.
    let fix = fixture();
    let eval = Evaluator::new(&fix.ctx);
    let enc = Encoder::new(&fix.ctx);
    let mut rng = StdRng::seed_from_u64(4);
    let msg: Vec<Complex> = (0..fix.ctx.slots())
        .map(|i| Complex::new((i as f64 * 0.7).cos() * 0.2, (i as f64 * 0.3).sin() * 0.1))
        .collect();
    let pt = enc.encode(&msg, fix.ctx.max_level());
    let ct = fix.keys.public.encrypt(&pt, &mut rng);
    assert_thread_invariant("bootstrap-shaped circuit", || {
        let t = eval.mul_relin_rescale(&ct, &ct, &fix.keys.relin);
        let r1 = eval.rotate(&t, 1, &fix.keys);
        let t = eval.add(&t, &r1);
        let t = eval.mul_scalar(&t, 0.5);
        let t = eval.square_relin(&t, &fix.keys.relin);
        let t = eval.rescale(&t);
        let r2 = eval.rotate(&t, 2, &fix.keys);
        let t = eval.sub(&t, &r2);
        let t = eval.negate(&t);
        let t = eval.add_scalar(&t, 0.25);
        ct_data(&t)
    });
}

#[test]
#[ignore = "full N=2^9 bootstraps; run with --ignored (release profile recommended)"]
fn bootstrap_is_thread_invariant_whatever_width_prepared_it() {
    // The bootstrap_demo ring with the dense transforms, and the deeper
    // chain the fftIter-decomposed transforms need.
    for (levels, config) in [
        (16, BootstrapConfig::sparse_default()),
        (26, BootstrapConfig::decomposed(3, 3)),
    ] {
        assert_bootstrap_thread_invariant(levels, config);
    }
}

/// A Bootstrapper encodes its transforms' plaintexts on its first call, so
/// each instance below prepares at one width and is then used at another.
fn assert_bootstrap_thread_invariant(levels: usize, config: BootstrapConfig) {
    let what = format!("{levels}-level bootstrap, fft_iter {:?}", config.fft_iter);
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(9)
            .levels(levels)
            .alpha(4)
            .scale_bits(42)
            .q0_bits(50)
            .p_bits(55)
            .hamming_weight(16)
            .build(),
    );
    let mut rng = StdRng::seed_from_u64(9);
    let rotations = Bootstrapper::new(&ctx, config.clone()).required_rotations();
    let keys = KeyGenerator::new(&ctx, &mut rng).generate(&rotations);
    let enc = Encoder::new(&ctx);
    let eval = Evaluator::new(&ctx);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new((i as f64 * 0.37).sin() * 0.4, (i as f64 * 0.11).cos() * 0.3))
        .collect();
    let ct = keys.public.encrypt(&enc.encode(&msg, 1), &mut rng);

    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = |bts: &Bootstrapper<'_>, threads: usize| {
        parpool::set_threads(threads);
        let before = opcount::snapshot();
        let out = bts.bootstrap(&eval, &enc, &ct, &keys);
        (
            ct_data(&out),
            out.level(),
            out.scale().to_bits(),
            opcount::snapshot().since(&before),
        )
    };
    let narrow_first = Bootstrapper::new(&ctx, config.clone());
    let want = run(&narrow_first, 1);
    for threads in [2usize, 8] {
        assert!(
            run(&narrow_first, threads) == want,
            "{what} prepared at 1 thread diverged at {threads} threads"
        );
    }
    let wide_first = Bootstrapper::new(&ctx, config);
    for threads in [8usize, 1] {
        assert!(
            run(&wide_first, threads) == want,
            "{what} prepared at 8 threads diverged at {threads} threads"
        );
    }
    parpool::set_threads(0);
}
