//! `fhe-ckks`: the functional CKKS library, closed loop, one caller, one
//! op at a time. Sparse-secret bootstraps at N = 2⁹ (cache-resident) and
//! HMULT / HROT at the paper ring N = 2¹⁶, 24 levels, D = 4
//! (DRAM-resident), interleaved round by round.
//!
//! Outputs are checked without the O(N²) slot embedding at 2¹⁶: the HMULT
//! and HROT inputs are encoded straight from coefficients, so the
//! plaintext computations are a sparse negacyclic product and the
//! automorphism X → X^5 on coefficients.

use std::time::Instant;

use ckks::keys::galois_for_rotation;
use ckks::keyswitch::KeySwitcher;
use ckks::opcount;
use ckks::prelude::*;
use ckks_math::poly::{Format, Poly};
use ckks_math::{sampling, BasisConverter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{Outcome, Summary};
use crate::tracer::Tracer;
use crate::{derive_seed, Opts};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed rounds at least, so `op_ms` is a median of several.
const MIN_ROUNDS: usize = 3;
/// Nonzero coefficients of the second HMULT operand.
const SPARSE_TERMS: usize = 8;
/// Largest accepted coefficient error of HMULT / HROT at 2¹⁶.
const RING16_TOLERANCE: f64 = 1e-3;
/// Largest accepted slot error after bootstrapping (as `bootstrap_demo`).
const BOOT_TOLERANCE: f64 = 5e-2;

fn params16() -> CkksParams {
    CkksParams::builder()
        .log_n(16)
        .levels(24)
        .alpha(7)
        .scale_bits(40)
        .build()
}

/// The `bootstrap_demo` ring.
fn params9() -> CkksParams {
    CkksParams::builder()
        .log_n(9)
        .levels(16)
        .alpha(4)
        .scale_bits(42)
        .q0_bits(50)
        .p_bits(55)
        .hamming_weight(16)
        .build()
}

/// Everything a run needs, generated from the seed.
struct State {
    ctx9: CkksContext,
    keys9: KeySet,
    msg9: Vec<Complex>,
    /// The level-1 ciphertext every bootstrap refreshes.
    ct9: Ciphertext,
    ctx16: CkksContext,
    keys16: KeySet,
    /// Dense operand (as encoded, i.e. rounded to the scale).
    m1: Vec<f64>,
    /// Sparse operand: (index, value as encoded).
    m2: Vec<(usize, f64)>,
    ct1: Ciphertext,
    ct2: Ciphertext,
}

fn encrypt_coeffs(
    ctx: &CkksContext,
    keys: &KeySet,
    coeffs: &[f64],
    rng: &mut StdRng,
) -> Ciphertext {
    let level = ctx.max_level();
    let delta = ctx.params().scale();
    let ints: Vec<i64> = coeffs.iter().map(|c| (c * delta).round() as i64).collect();
    let mut poly = Poly::from_coeff_i64(ctx.basis_q(level), &ints);
    poly.to_eval();
    keys.public
        .encrypt(&Plaintext::new(poly, delta, level), rng)
}

fn setup(seed: u64) -> State {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
    let ctx16 = CkksContext::new(params16());
    let keys16 = KeyGenerator::new(&ctx16, &mut rng).generate(&[1]);
    let ctx9 = CkksContext::new(params9());
    let rotations =
        Bootstrapper::new(&ctx9, BootstrapConfig::sparse_default()).required_rotations();
    let keys9 = KeyGenerator::new(&ctx9, &mut rng).generate(&rotations);

    let mut inputs = StdRng::seed_from_u64(derive_seed(seed, 2));
    let msg9: Vec<Complex> = (0..ctx9.slots())
        .map(|_| Complex::new(inputs.gen_range(-0.5..0.5), inputs.gen_range(-0.5..0.5)))
        .collect();
    let enc9 = Encoder::new(&ctx9);
    let ct = keys9
        .public
        .encrypt(&enc9.encode(&msg9, ctx9.max_level()), &mut rng);
    let ct9 = Evaluator::new(&ctx9).mod_switch_to(&ct, 1);

    let n = ctx16.n();
    let delta = ctx16.params().scale();
    let encoded = |v: f64| (v * delta).round() / delta;
    let m1: Vec<f64> = (0..n)
        .map(|_| encoded(inputs.gen_range(-1.0..1.0)))
        .collect();
    let mut m2: Vec<(usize, f64)> = Vec::new();
    while m2.len() < SPARSE_TERMS {
        let i = inputs.gen_range(0..n);
        if m2.iter().all(|&(j, _)| j != i) {
            m2.push((i, encoded(inputs.gen_range(-1.0..1.0))));
        }
    }
    let mut dense2 = vec![0.0; n];
    for &(i, v) in &m2 {
        dense2[i] = v;
    }
    let ct1 = encrypt_coeffs(&ctx16, &keys16, &m1, &mut rng);
    let ct2 = encrypt_coeffs(&ctx16, &keys16, &dense2, &mut rng);
    drop(enc9);
    State {
        ctx9,
        keys9,
        msg9,
        ct9,
        ctx16,
        keys16,
        m1,
        m2,
        ct1,
        ct2,
    }
}

fn same_poly(x: &Poly, y: &Poly) -> bool {
    x.num_limbs() == y.num_limbs()
        && x.format() == y.format()
        && (0..x.num_limbs()).all(|i| x.limb(i).data() == y.limb(i).data())
}

/// Bit-for-bit equality of two ciphertexts.
fn same(x: &Ciphertext, y: &Ciphertext) -> bool {
    x.level() == y.level()
        && x.scale().to_bits() == y.scale().to_bits()
        && same_poly(x.b(), y.b())
        && same_poly(x.a(), y.a())
}

/// Decrypted coefficients divided by the scale.
fn decrypt_coeffs(ctx: &CkksContext, sk: &SecretKey, ct: &Ciphertext) -> Vec<f64> {
    let pt = sk.decrypt(ct);
    let mut p = pt.poly().clone();
    p.to_coeff();
    let crt = ctx.crt(pt.level());
    let mut residues = vec![0u64; p.num_limbs()];
    (0..p.n())
        .map(|k| {
            for (i, r) in residues.iter_mut().enumerate() {
                *r = p.limb(i).data()[k];
            }
            crt.reconstruct_centered_f64(&residues) / pt.scale()
        })
        .collect()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// m1 · m2 mod X^N + 1.
fn expected_product(m1: &[f64], m2: &[(usize, f64)]) -> Vec<f64> {
    let n = m1.len();
    let mut out = vec![0.0; n];
    for &(k, v) in m2 {
        for (i, &a) in m1.iter().enumerate() {
            let j = i + k;
            if j < n {
                out[j] += v * a;
            } else {
                out[j - n] -= v * a;
            }
        }
    }
    out
}

/// m(X^g) mod X^N + 1.
fn expected_automorphism(m: &[f64], g: u64) -> Vec<f64> {
    let n = m.len();
    let mut out = vec![0.0; n];
    for (i, &a) in m.iter().enumerate() {
        let j = (i as u64 * g % (2 * n as u64)) as usize;
        if j < n {
            out[j] += a;
        } else {
            out[j - n] -= a;
        }
    }
    out
}

/// Slot error of a bootstrap output, checked against the tolerance.
fn boot_error(st: &State, ct: &Ciphertext, out: &mut Outcome) -> f64 {
    let enc = Encoder::new(&st.ctx9);
    let got = enc.decode(&st.keys9.secret.decrypt(ct));
    let err = ckks::complex::max_error(&st.msg9, &got);
    out.check(err < BOOT_TOLERANCE, || {
        format!("bootstrap: slot error {err:e} >= {BOOT_TOLERANCE:e}")
    });
    err
}

fn check_ring16(st: &State, hmult: &Ciphertext, hrot: &Ciphertext, out: &mut Outcome) {
    let want = expected_product(&st.m1, &st.m2);
    let err = max_abs_diff(&decrypt_coeffs(&st.ctx16, &st.keys16.secret, hmult), &want);
    out.check(err < RING16_TOLERANCE, || {
        format!("HMULT: coefficient error {err:e}")
    });
    let g = galois_for_rotation(st.ctx16.n(), 1);
    let want = expected_automorphism(&st.m1, g);
    let err = max_abs_diff(&decrypt_coeffs(&st.ctx16, &st.keys16.secret, hrot), &want);
    out.check(err < RING16_TOLERANCE, || {
        format!("HROT: coefficient error {err:e}")
    });
}

pub fn run(
    opts: &Opts,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Vec<(&'static str, String)> {
    let width = parpool::num_threads();
    let mut setups = Vec::new();
    let mut st = None;
    let repeats = if tracer.is_some() { 1 } else { SETUPS };
    for _ in 0..repeats {
        drop(st.take());
        let t = Instant::now();
        st = Some(setup(opts.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let st = st.expect("set up at least once");
    let bts = Bootstrapper::new(&st.ctx9, BootstrapConfig::sparse_default());
    let ops = Ops {
        st: &st,
        bts: &bts,
        enc9: Encoder::new(&st.ctx9),
        ev9: Evaluator::new(&st.ctx9),
        ev16: Evaluator::new(&st.ctx16),
    };

    // The width-1 round first: it is the reference every later output
    // must equal bit for bit, and it warms caches and the allocator before
    // anything is timed.
    parpool::set_threads(1);
    let reference = [ops.boot(), ops.hmult(), ops.hrot()];
    parpool::set_threads(width);
    let err = boot_error(&st, &reference[0], out);
    check_ring16(&st, &reference[1], &reference[2], out);

    let provenance = vec![
        (
            "ring16",
            format!(
                "N=2^16 levels=24 alpha=7 D={}",
                st.ctx16.decomposition_number()
            ),
        ),
        (
            "ring9",
            "N=2^9 levels=16 alpha=4 h=16 (bootstrap_demo)".into(),
        ),
        (
            "op",
            "one round: bootstrap (N=2^9), HMULT, HROT (N=2^16)".into(),
        ),
        ("setup_repeats", repeats.to_string()),
    ];

    match tracer {
        None => {
            let (mut rounds, mut boots, mut hmults, mut hrots) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let start = Instant::now();
            while rounds.len() < MIN_ROUNDS || start.elapsed() < opts.seconds {
                let round = Instant::now();
                let t = Instant::now();
                let b = ops.boot();
                boots.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let m = ops.hmult();
                hmults.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let r = ops.hrot();
                hrots.push(t.elapsed().as_secs_f64() * 1e3);
                rounds.push(round.elapsed().as_secs_f64() * 1e3);
                check_same(&[b, m, r], &reference, width, out);
            }
            out.value("setup_s", Summary::of(&setups).median);
            out.sampled("op_ms", &rounds);
            out.value("peak_rss_mb", crate::stats::peak_rss_mb());
            out.exact("boot_precision_bits", -err.log2());
            let med = |v: &[f64]| Summary::of(v).median;
            out.note(format!(
                "rounds: {}; median bootstrap {:.1} + HMULT {:.1} + HROT {:.1} ms; setups {:?} s",
                rounds.len(),
                med(&boots),
                med(&hmults),
                med(&hrots),
                setups
                    .iter()
                    .map(|s| (s * 1e3).round() / 1e3)
                    .collect::<Vec<_>>()
            ));
        }
        Some(tr) => traced(opts, tr, &ops, &reference, out),
    }
    provenance
}

/// The three timed operations over the run's inputs.
struct Ops<'a> {
    st: &'a State,
    bts: &'a Bootstrapper<'a>,
    enc9: Encoder<'a>,
    ev9: Evaluator<'a>,
    ev16: Evaluator<'a>,
}

impl Ops<'_> {
    fn boot(&self) -> Ciphertext {
        self.bts
            .bootstrap(&self.ev9, &self.enc9, &self.st.ct9, &self.st.keys9)
    }

    fn hmult(&self) -> Ciphertext {
        self.ev16
            .mul_relin_rescale(&self.st.ct1, &self.st.ct2, &self.st.keys16.relin)
    }

    fn hrot(&self) -> Ciphertext {
        self.ev16.rotate(&self.st.ct1, 1, &self.st.keys16)
    }
}

/// Checks a round's outputs against the width-1 reference, bit for bit.
fn check_same(got: &[Ciphertext; 3], want: &[Ciphertext; 3], width: usize, out: &mut Outcome) {
    for (name, (g, w)) in ["bootstrap", "HMULT", "HROT"]
        .iter()
        .zip(got.iter().zip(want))
    {
        out.check(same(g, w), || {
            format!("{name} differs at width {width} vs 1")
        });
    }
}

/// Kernel unit costs at one ring, in ns: forward and inverse NTT,
/// element-wise multiply and automorphism per limb, and BConv per limb
/// product (one ModUp digit).
#[derive(Debug, Clone, Copy)]
struct UnitCosts {
    fwd: f64,
    inv: f64,
    ew: f64,
    aut: f64,
    bconv: f64,
}

/// Times the kernels at one ring, `reps` times each; returns the medians.
fn kernels(tr: &mut Tracer, ctx: &CkksContext, rng: &mut StdRng, reps: usize) -> UnitCosts {
    let level = ctx.max_level();
    let basis = ctx.basis_q(level);
    let coeff = sampling::uniform(rng, basis, Format::Coeff);
    let eval = sampling::uniform(rng, basis, Format::Eval);
    let other = sampling::uniform(rng, basis, Format::Eval);
    let alpha = ctx.params().alpha;
    let from = &basis[..alpha];
    let to: Vec<_> = basis[alpha..]
        .iter()
        .chain(ctx.basis_p())
        .cloned()
        .collect();
    let conv = BasisConverter::new(from, &to);
    let slices: Vec<&[u64]> = (0..alpha).map(|i| coeff.limb(i).data()).collect();
    let mark = tr.spans().len();
    for _ in 0..reps {
        let mut p = coeff.duplicate();
        tr.span("ckks-math.ntt_fwd", |_| p.to_eval());
        let mut p = eval.duplicate();
        tr.span("ckks-math.ntt_inv", |_| p.to_coeff());
        let mut p = eval.duplicate();
        tr.span("ckks-math.ew_mul", |_| p.mul_assign(&other));
        drop(tr.span("ckks-math.automorphism", |_| eval.automorphism(5)));
        drop(tr.span("ckks-math.bconv", |_| conv.convert_approx(&slices)));
    }
    let med = |name: &str, units: usize| {
        let d: Vec<f64> = tr.spans()[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / units as f64)
            .collect();
        Summary::of(&d).median
    };
    let limbs = coeff.num_limbs();
    UnitCosts {
        fwd: med("ckks-math.ntt_fwd", limbs),
        inv: med("ckks-math.ntt_inv", limbs),
        ew: med("ckks-math.ew_mul", limbs),
        aut: med("ckks-math.automorphism", limbs),
        bconv: med("ckks-math.bconv", alpha * to.len()),
    }
}

/// Kernel time (ns) of `c` at unit costs `u`: NTT, BConv, element-wise,
/// automorphism.
fn kernel_ns(c: &opcount::OpCounts, u: &UnitCosts) -> [f64; 4] {
    [
        c.ntt_limbs as f64 * u.fwd + c.intt_limbs as f64 * u.inv,
        c.bconv_limb_products as f64 * u.bconv,
        c.ew_limb_ops as f64 * u.ew,
        c.automorphism_limbs as f64 * u.aut,
    ]
}

/// Runs `f` inside a span and returns its result with the op counts it
/// recorded.
fn counted<R>(
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, opcount::OpCounts) {
    let before = opcount::snapshot();
    let r = tr.span(name, |_| f());
    (r, opcount::snapshot().since(&before))
}

/// Per-layer split of a round. The round's host time is split into the
/// `ckks-math` kernels (op counts × unit costs measured at the same ring),
/// the rest of the `ckks` calls, and the benchmark's own time between them.
fn traced(
    opts: &Opts,
    tr: &mut Tracer,
    ops: &Ops<'_>,
    reference: &[Ciphertext; 3],
    out: &mut Outcome,
) {
    let st = ops.st;
    let width = parpool::num_threads();
    let mut rng = StdRng::seed_from_u64(derive_seed(opts.seed, 3));
    let ks = KeySwitcher::new(&st.ctx16);
    let level16 = st.ctx16.max_level();
    let a16 = sampling::uniform(&mut rng, st.ctx16.basis_q(level16), Format::Eval);
    let mut counts: Option<[opcount::OpCounts; 3]> = None;
    let (mut u9, mut u16) = (Vec::new(), Vec::new());
    let mut bare_ntt9 = Vec::new();
    let start = Instant::now();
    while counts.is_none() || start.elapsed() < opts.seconds {
        u9.push(kernels(tr, &st.ctx9, &mut rng, 20));
        u16.push(kernels(tr, &st.ctx16, &mut rng, 2));
        // The tracer's own cost: the smallest traced call, traced and
        // bare in turn on the same input.
        let coeff9 = sampling::uniform(
            &mut rng,
            st.ctx9.basis_q(st.ctx9.max_level()),
            Format::Coeff,
        );
        for _ in 0..20 {
            let mut p = coeff9.duplicate();
            tr.span("bench.ntt_probe", |_| p.to_eval());
            let mut p = coeff9.duplicate();
            let t = Instant::now();
            p.to_eval();
            bare_ntt9.push(t.elapsed().as_nanos() as f64);
        }

        // The keyswitch split at 2¹⁶, relinearization key, full level.
        let (b, a) = tr.span("ckks.keyswitch", |tr| {
            let up = tr.span("ckks.ks.mod_up", |_| ks.decompose_mod_up(&a16, level16));
            let (b, a) = tr.span("ckks.ks.key_mult", |_| ks.key_mult(&up, &st.keys16.relin));
            tr.span("ckks.ks.mod_down", |_| ks.mod_down_pair(&b, &a, level16))
        });
        if counts.is_none() {
            let (b0, a0) = ks.switch(&a16, &st.keys16.relin, level16);
            out.check(same_poly(&b, &b0) && same_poly(&a, &a0), || {
                "keyswitch split differs from KeySwitcher::switch".into()
            });
        }

        // One traced round, each op counted.
        let (outs, c) = tr.span("fhe.round", |tr| {
            let (b, cb) = counted(tr, "ckks.bootstrap", || ops.boot());
            let (m, cm) = counted(tr, "ckks.hmult", || ops.hmult());
            let (r, cr) = counted(tr, "ckks.hrot", || ops.hrot());
            ([b, m, r], [cb, cm, cr])
        });
        check_same(&outs, reference, width, out);
        out.check(counts.is_none_or(|k| k == c), || {
            "op counts of a round changed".into()
        });
        counts = Some(c);
    }
    let [cb, cm, cr] = counts.expect("one round ran");
    for (op, c) in [("boot", cb), ("hmult", cm), ("hrot", cr)] {
        out.exact(format!("{op}.ntt_limbs"), c.ntt_limbs as f64);
        out.exact(format!("{op}.intt_limbs"), c.intt_limbs as f64);
        out.exact(
            format!("{op}.bconv_limb_products"),
            c.bconv_limb_products as f64,
        );
        out.exact(format!("{op}.ew_limb_ops"), c.ew_limb_ops as f64);
        out.exact(
            format!("{op}.automorphism_limbs"),
            c.automorphism_limbs as f64,
        );
        out.exact(format!("{op}.keyswitches"), c.keyswitches as f64);
    }

    let med = |v: &[f64]| Summary::of(v).median;
    let unit = |v: &[UnitCosts]| UnitCosts {
        fwd: med(&v.iter().map(|u| u.fwd).collect::<Vec<_>>()),
        inv: med(&v.iter().map(|u| u.inv).collect::<Vec<_>>()),
        ew: med(&v.iter().map(|u| u.ew).collect::<Vec<_>>()),
        aut: med(&v.iter().map(|u| u.aut).collect::<Vec<_>>()),
        bconv: med(&v.iter().map(|u| u.bconv).collect::<Vec<_>>()),
    };
    let (u9, u16) = (unit(&u9), unit(&u16));
    let round = tr.durations("fhe.round");
    let round_ns = med(&round);
    let bench: Vec<f64> = round
        .iter()
        .zip(tr.self_durations("fhe.round"))
        .map(|(d, own)| own / d)
        .collect();
    let bench = med(&bench);
    let (k9, km, kr) = (
        kernel_ns(&cb, &u9),
        kernel_ns(&cm, &u16),
        kernel_ns(&cr, &u16),
    );
    let class: Vec<f64> = (0..4).map(|i| (k9[i] + km[i] + kr[i]) / round_ns).collect();
    let kernels: f64 = class.iter().sum();
    out.value("ckks-math.share", kernels);
    out.value("ckks.share", 1.0 - kernels - bench);
    out.value("bench.share", bench);
    out.idle(&[
        "workloads.share",
        "core.share",
        "serving.share",
        "obs.overhead_share",
    ]);
    out.value("ckks-math.ntt.share", class[0]);
    out.value("ckks-math.bconv.share", class[1]);
    out.value("ckks-math.ew.share", class[2]);
    out.value("ckks-math.automorphism.share", class[3]);

    let (up, mult, down) = (
        med(&tr.durations("ckks.ks.mod_up")),
        med(&tr.durations("ckks.ks.key_mult")),
        med(&tr.durations("ckks.ks.mod_down")),
    );
    let ks_ns = up + mult + down;
    out.value("ckks.ks.mod_up.share", up / ks_ns);
    out.value("ckks.ks.key_mult.share", mult / ks_ns);
    out.value("ckks.ks.mod_down.share", down / ks_ns);
    out.idle(&[
        "figures.fig8.share",
        "figures.fig10.share",
        "figures.table5.share",
        "figures.rest.share",
    ]);
    out.sampled(
        "op_ms.traced",
        &round.iter().map(|ns| ns / 1e6).collect::<Vec<_>>(),
    );
    out.value(
        "trace_overhead_share",
        med(&tr.durations("bench.ntt_probe")) / med(&bare_ntt9) - 1.0,
    );

    for (op, k, name) in [
        (&k9, "ckks.bootstrap", "bootstrap"),
        (&km, "ckks.hmult", "HMULT"),
        (&kr, "ckks.hrot", "HROT"),
    ]
    .map(|(k, span, name)| (med(&tr.durations(span)), k, name))
    {
        out.note(format!(
            "{name:<9} {:>8.1} ms = NTT {:.1} + BConv {:.1} + ew {:.1} + aut {:.1} + rest {:.1} ms",
            op / 1e6,
            k[0] / 1e6,
            k[1] / 1e6,
            k[2] / 1e6,
            k[3] / 1e6,
            (op - k.iter().sum::<f64>()) / 1e6
        ));
    }
    out.note(format!(
        "keyswitch at 2^16: ModUp {:.1} + key-mult {:.1} + ModDown {:.1} ms; rounds {}",
        up / 1e6,
        mult / 1e6,
        down / 1e6,
        round.len()
    ));
}
