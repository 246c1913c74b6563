//! Homomorphic evaluation: the basic CKKS functions of §II-A.
//!
//! - HADD / HSUB — element-wise ciphertext addition;
//! - PMULT — plaintext-ciphertext multiplication;
//! - HMULT — ciphertext multiplication (tensor + relinearization);
//! - HROT — slot rotation (automorphism + key switching, hoisted form);
//! - rescaling and level management.
//!
//! Rotations use the hoisted "automorphism last" evk structure \[8\] generated
//! by [`crate::keys::KeyGenerator::gen_rotation`]: the key switch runs on
//! `a` directly and the automorphism is applied to the two output
//! polynomials, which is what lets Anaheim reorder automorphism past the
//! element-wise block (§V-B).

use std::fmt;

use ckks_math::poly::Poly;
use ckks_math::rns::rescale_in_place;

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::keys::{galois_for_rotation, EvalKey, KeySet};
use crate::keyswitch::{HoistedDigits, KeySwitcher};
use crate::noise::{NoiseModel, NoiseTracker};
use crate::opcount;

/// Typed errors from budget-guarded homomorphic evaluation.
///
/// The raw [`Evaluator`] is a low-level layer that panics on programmer
/// errors; a serving stack should not. [`GuardedEvaluator`] surfaces the
/// conditions that depend on *data and circuit depth* — the ones a server
/// cannot rule out statically — as values of this type.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The heuristic noise bound leaves fewer bits of precision than the
    /// guard's floor: the result would be numerically meaningless. The
    /// application must bootstrap or re-encrypt before continuing.
    NoiseBudgetExhausted {
        /// The operation that crossed the floor.
        op: &'static str,
        /// Predicted remaining precision after the operation.
        precision_bits: f64,
        /// The configured floor.
        required_bits: f64,
    },
    /// The modulus chain has no level left for the rescale this operation
    /// needs.
    LevelsExhausted {
        /// The operation that needed a level.
        op: &'static str,
        /// The level it was attempted at.
        level: usize,
    },
    /// The key set has no rotation key for the requested distance.
    MissingRotationKey {
        /// Normalized rotation distance.
        distance: isize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NoiseBudgetExhausted {
                op,
                precision_bits,
                required_bits,
            } => write!(
                f,
                "noise budget exhausted in {op}: {precision_bits:.1} bits of \
                 precision left, {required_bits:.1} required"
            ),
            EvalError::LevelsExhausted { op, level } => write!(
                f,
                "modulus chain exhausted in {op}: cannot rescale at level {level}"
            ),
            EvalError::MissingRotationKey { distance } => {
                write!(f, "missing rotation key for distance {distance}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Relative tolerance for scale compatibility checks.
///
/// Rescale primes sit within ~2^-26 (relative) of Δ, so deep circuits
/// accumulate a small scale drift between operands that reach an addition by
/// different paths; the drift shows up as multiplicative message error of the
/// same relative size, far below CKKS noise at our parameters. The deepest
/// circuit we run (a 26-level decomposed bootstrap) accumulates ~1e-5 of
/// drift, so the gate sits at 1e-4.
const SCALE_RTOL: f64 = 1e-4;

/// Homomorphic evaluator bound to a context.
///
/// ```
/// use ckks::prelude::*;
/// use ckks::keys::KeyGenerator;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let ctx = CkksContext::new(CkksParams::test_small());
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut kg = KeyGenerator::new(&ctx, &mut rng);
/// let sk = kg.gen_secret();
/// let pk = kg.gen_public(&sk);
///
/// let enc = Encoder::new(&ctx);
/// let msg: Vec<Complex> = (0..ctx.slots())
///     .map(|i| Complex::new(i as f64 * 0.01, 0.0))
///     .collect();
/// let ct = pk.encrypt(&enc.encode(&msg, ctx.max_level()), &mut rng);
///
/// let eval = Evaluator::new(&ctx);
/// let sum = eval.add(&ct, &ct);
/// let out = enc.decode(&sk.decrypt(&sum));
/// assert!((out[1].re - 2.0 * msg[1].re).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    ctx: &'a CkksContext,
    ks: KeySwitcher<'a>,
}

impl<'a> Evaluator<'a> {
    /// Binds a context.
    pub fn new(ctx: &'a CkksContext) -> Self {
        Self {
            ctx,
            ks: KeySwitcher::new(ctx),
        }
    }

    /// The underlying key switcher (exposed for hoisted linear transforms).
    pub fn key_switcher(&self) -> &KeySwitcher<'a> {
        &self.ks
    }

    /// The context.
    pub fn context(&self) -> &'a CkksContext {
        self.ctx
    }

    fn assert_aligned(&self, x: &Ciphertext, y: &Ciphertext) {
        assert_eq!(x.level(), y.level(), "level mismatch: align levels first");
        let rel = (x.scale() - y.scale()).abs() / x.scale().max(y.scale());
        assert!(
            rel < SCALE_RTOL,
            "scale mismatch: {} vs {}",
            x.scale(),
            y.scale()
        );
    }

    /// HADD: element-wise ciphertext addition.
    ///
    /// # Panics
    ///
    /// Panics on level or scale mismatch.
    pub fn add(&self, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        self.assert_aligned(x, y);
        let b = x.b().added(y.b());
        let a = x.a().added(y.a());
        opcount::count_ew(2 * x.level());
        Ciphertext::new(b, a, x.scale(), x.level())
    }

    /// HSUB: element-wise ciphertext subtraction.
    ///
    /// # Panics
    ///
    /// Panics on level or scale mismatch.
    pub fn sub(&self, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        self.assert_aligned(x, y);
        let b = x.b().subbed(y.b());
        let a = x.a().subbed(y.a());
        opcount::count_ew(2 * x.level());
        Ciphertext::new(b, a, x.scale(), x.level())
    }

    /// Negation.
    pub fn negate(&self, x: &Ciphertext) -> Ciphertext {
        let b = x.b().negated();
        let a = x.a().negated();
        opcount::count_ew(2 * x.level());
        Ciphertext::new(b, a, x.scale(), x.level())
    }

    /// Adds a plaintext (levels and scales must match).
    ///
    /// # Panics
    ///
    /// Panics on level or scale mismatch.
    pub fn add_plain(&self, x: &Ciphertext, p: &Plaintext) -> Ciphertext {
        assert_eq!(x.level(), p.level(), "level mismatch");
        let rel = (x.scale() - p.scale()).abs() / x.scale().max(p.scale());
        assert!(rel < SCALE_RTOL, "scale mismatch");
        let b = x.b().added(p.poly());
        opcount::count_ew(x.level());
        Ciphertext::new(b, x.a().duplicate(), x.scale(), x.level())
    }

    /// PMULT: plaintext-ciphertext multiplication. The output scale is the
    /// product of the scales; rescale afterwards to restore it.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch.
    pub fn mul_plain(&self, x: &Ciphertext, p: &Plaintext) -> Ciphertext {
        assert_eq!(x.level(), p.level(), "level mismatch");
        let b = x.b().multiplied(p.poly());
        let a = x.a().multiplied(p.poly());
        opcount::count_ew(2 * x.level());
        Ciphertext::new(b, a, x.scale() * p.scale(), x.level())
    }

    /// Multiplies by a real scalar, consuming one level's worth of scale
    /// (encodes the scalar at the default Δ; rescale afterwards).
    pub fn mul_scalar(&self, x: &Ciphertext, c: f64) -> Ciphertext {
        let delta = self.ctx.params().scale();
        let v = (c * delta).round() as i64;
        let b = x.b().scaled_i64(v);
        let a = x.a().scaled_i64(v);
        opcount::count_ew(2 * x.level());
        Ciphertext::new(b, a, x.scale() * delta, x.level())
    }

    /// Multiplies every slot by the imaginary unit `i`, exactly.
    ///
    /// The slot image of the monomial `X^{N/2}` is `ζ^{5^j·N/2} = i^{5^j} = i`
    /// in every slot, so this is a ring product by a monomial: no rounding,
    /// no noise growth, and neither the level nor the scale changes.
    pub fn mul_by_i(&self, x: &Ciphertext) -> Ciphertext {
        let n = self.ctx.n();
        let mut coeffs = vec![0i64; n];
        coeffs[n / 2] = 1;
        let mut monomial = Poly::from_coeff_i64(self.ctx.basis_q(x.level()), &coeffs);
        monomial.to_eval();
        let b = x.b().multiplied(&monomial);
        let a = x.a().multiplied(&monomial);
        opcount::count_ew(2 * x.level());
        Ciphertext::new(b, a, x.scale(), x.level())
    }

    /// Multiplies by a small integer without changing the scale.
    pub fn mul_integer(&self, x: &Ciphertext, v: i64) -> Ciphertext {
        let b = x.b().scaled_i64(v);
        let a = x.a().scaled_i64(v);
        opcount::count_ew(2 * x.level());
        Ciphertext::new(b, a, x.scale(), x.level())
    }

    /// Adds the real constant `c` to every slot.
    pub fn add_scalar(&self, x: &Ciphertext, c: f64) -> Ciphertext {
        // A constant vector encodes to the constant polynomial c·Δ, which in
        // the evaluation domain is c·Δ in every residue.
        let mut b = x.b().duplicate();
        for i in 0..b.num_limbs() {
            let limb = b.limb_mut(i);
            let m = *limb.ctx().modulus();
            let v = m.from_i64((c * x.scale()).round() as i64);
            for r in limb.data_mut() {
                *r = m.add(*r, v);
            }
        }
        opcount::count_ew(x.level());
        Ciphertext::new(b, x.a().duplicate(), x.scale(), x.level())
    }

    /// Rescales by the last prime: drops one level and divides the scale.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is at level 1.
    pub fn rescale(&self, x: &Ciphertext) -> Ciphertext {
        let mut out = Ciphertext::new(x.b().duplicate(), x.a().duplicate(), x.scale(), x.level());
        self.rescale_assign(&mut out);
        out
    }

    /// In-place rescale: mutates `x` instead of copying it first. Prefer
    /// this when the pre-rescale ciphertext is no longer needed (e.g. the
    /// tensor output inside [`Self::mul_relin_rescale`]).
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is at level 1.
    pub fn rescale_assign(&self, x: &mut Ciphertext) {
        assert!(x.level() > 1, "cannot rescale below level 1");
        let q_last = self
            .ctx
            .basis_q(x.level())
            .last()
            .expect("non-empty basis")
            .modulus()
            .value();
        let level = x.level();
        let scale = x.scale();
        let (b, a) = x.parts_mut();
        rescale_in_place(b);
        rescale_in_place(a);
        // 2 × (1 INTT + (level−1) NTT + elementwise fix-up)
        opcount::count_intt(2);
        opcount::count_ntt(2 * (level - 1));
        opcount::count_ew(2 * (level - 1));
        x.set_level(level - 1);
        x.set_scale(scale / q_last as f64);
    }

    /// Forces the scale to an exact target by multiplying with a constant
    /// `≈1` encoded at a compensating scale, then rescaling. Costs one level;
    /// the value is unchanged up to ~2^-40 relative rounding.
    ///
    /// Used at the end of bootstrapping to return the ciphertext to the
    /// canonical scale Δ regardless of the scale drift accumulated through
    /// CoeffToSlot/EvalMod/SlotToCoeff.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is at level 1 or the correction constant is
    /// out of the representable range.
    pub fn rescale_to_exact_scale(&self, x: &Ciphertext, target: f64) -> Ciphertext {
        assert!(x.level() > 1, "need a spare level for the exact rescale");
        let q_drop = self
            .ctx
            .basis_q(x.level())
            .last()
            .expect("non-empty")
            .modulus()
            .value() as f64;
        let c = target * q_drop / x.scale();
        assert!(
            (1.0..4.6e18).contains(&c),
            "correction constant out of range"
        );
        let vi = c.round() as i64;
        let mut t = self.mul_integer(x, vi);
        t.set_scale(x.scale() * vi as f64);
        let mut out = self.rescale(&t);
        out.set_scale(target);
        out
    }

    /// Drops to a lower level without rescaling (modulus switching).
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or above the current level.
    pub fn mod_switch_to(&self, x: &Ciphertext, level: usize) -> Ciphertext {
        assert!(level >= 1 && level <= x.level(), "invalid target level");
        let mut b = x.b().duplicate();
        let mut a = x.a().duplicate();
        b.truncate_limbs(level);
        a.truncate_limbs(level);
        Ciphertext::new(b, a, x.scale(), level)
    }

    /// Brings two ciphertexts to a common (minimum) level so they can be
    /// added or multiplied.
    pub fn align_levels(&self, x: &Ciphertext, y: &Ciphertext) -> (Ciphertext, Ciphertext) {
        let level = x.level().min(y.level());
        (self.mod_switch_to(x, level), self.mod_switch_to(y, level))
    }

    /// Addition after aligning levels (scales must still agree within
    /// tolerance).
    pub fn add_aligned(&self, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        let (a, b) = self.align_levels(x, y);
        self.add(&a, &b)
    }

    /// HMULT: ciphertext multiplication with relinearization. The output
    /// scale is the product of scales; rescale afterwards.
    ///
    /// # Panics
    ///
    /// Panics on level/scale mismatch.
    pub fn mul_relin(&self, x: &Ciphertext, y: &Ciphertext, relin: &EvalKey) -> Ciphertext {
        self.assert_aligned_mul(x, y);
        let level = x.level();
        // Tensor: (d0, d1, d2) = (b1·b2, b1·a2 + a1·b2, a1·a2).
        let d0 = x.b().multiplied(y.b());
        let mut d1 = x.b().multiplied(y.a());
        d1.mac_assign(x.a(), y.b());
        let d2 = x.a().multiplied(y.a());
        opcount::count_ew(4 * level);
        // Relinearize d2 down to (b, a).
        let (kb, ka) = self.ks.switch(&d2, relin, level);
        let mut b = d0;
        b.add_assign(&kb);
        let mut a = d1;
        a.add_assign(&ka);
        opcount::count_ew(2 * level);
        Ciphertext::new(b, a, x.scale() * y.scale(), level)
    }

    fn assert_aligned_mul(&self, x: &Ciphertext, y: &Ciphertext) {
        assert_eq!(x.level(), y.level(), "level mismatch: align levels first");
    }

    /// HMULT followed by rescale (the common composite).
    pub fn mul_relin_rescale(&self, x: &Ciphertext, y: &Ciphertext, relin: &EvalKey) -> Ciphertext {
        let mut t = self.mul_relin(x, y, relin);
        self.rescale_assign(&mut t);
        t
    }

    /// Squares a ciphertext (TensorSq of Table II) with relinearization.
    pub fn square_relin(&self, x: &Ciphertext, relin: &EvalKey) -> Ciphertext {
        let level = x.level();
        let d0 = x.b().multiplied(x.b());
        let mut d1 = x.b().multiplied(x.a());
        d1.mul_scalar_i64(2);
        let d2 = x.a().multiplied(x.a());
        opcount::count_ew(3 * level);
        let (kb, ka) = self.ks.switch(&d2, relin, level);
        let mut b = d0;
        b.add_assign(&kb);
        let mut a = d1;
        a.add_assign(&ka);
        opcount::count_ew(2 * level);
        Ciphertext::new(b, a, x.scale() * x.scale(), level)
    }

    /// HROT: rotates slots left by `r`, using the hoisted-form rotation key.
    ///
    /// # Panics
    ///
    /// Panics if the key set lacks the rotation key for `r`.
    pub fn rotate(&self, x: &Ciphertext, r: isize, keys: &KeySet) -> Ciphertext {
        let r_norm = r.rem_euclid(self.ctx.slots() as isize);
        if r_norm == 0 {
            return x.clone();
        }
        let evk = keys
            .rotation(r_norm, self.ctx.slots())
            .unwrap_or_else(|| panic!("missing rotation key for distance {r_norm}"));
        let g = galois_for_rotation(self.ctx.n(), r_norm);
        self.apply_galois(x, g, evk)
    }

    /// Conjugates every slot.
    pub fn conjugate(&self, x: &Ciphertext, keys: &KeySet) -> Ciphertext {
        let g = 2 * self.ctx.n() as u64 - 1;
        self.apply_galois(x, g, &keys.conjugation)
    }

    /// Applies an arbitrary Galois map with a hoisted-form key: key-switch
    /// `a` first, then apply the automorphism to both output polynomials.
    pub fn apply_galois(&self, x: &Ciphertext, g: u64, evk: &EvalKey) -> Ciphertext {
        let level = x.level();
        let (kb, ka) = self.ks.switch(x.a(), evk, level);
        let b = x.b().added(&kb);
        opcount::count_ew(level);
        let b = b.automorphism(g);
        let a = ka.automorphism(g);
        opcount::count_automorphism(2 * level);
        Ciphertext::new(b, a, x.scale(), level)
    }

    /// Hoisted rotation: reuses a precomputed decomposition of `x.a()`.
    /// `hoisted` must come from [`KeySwitcher::decompose_mod_up`] on the same
    /// ciphertext.
    pub fn rotate_hoisted(
        &self,
        x: &Ciphertext,
        hoisted: &HoistedDigits,
        r: isize,
        keys: &KeySet,
    ) -> Ciphertext {
        let r_norm = r.rem_euclid(self.ctx.slots() as isize);
        if r_norm == 0 {
            return x.clone();
        }
        let evk = keys
            .rotation(r_norm, self.ctx.slots())
            .unwrap_or_else(|| panic!("missing rotation key for distance {r_norm}"));
        let level = x.level();
        opcount::count_keyswitch();
        let (kb, ka) = self.ks.key_mult(hoisted, evk);
        let (mut b, a) = self.ks.mod_down_pair(&kb, &ka, level);
        b.add_assign(x.b());
        opcount::count_ew(level);
        let g = galois_for_rotation(self.ctx.n(), r_norm);
        let b = b.automorphism(g);
        let a = a.automorphism(g);
        opcount::count_automorphism(2 * level);
        Ciphertext::new(b, a, x.scale(), level)
    }
}

/// A ciphertext paired with its predicted noise state.
#[derive(Debug, Clone)]
pub struct TrackedCiphertext {
    /// The ciphertext.
    pub ct: Ciphertext,
    /// Heuristic magnitude/error bounds for its message.
    pub tracker: NoiseTracker,
}

/// A noise-budget-guarded evaluator: every operation updates a
/// [`NoiseTracker`] alongside the ciphertext and fails with a typed
/// [`EvalError`] the moment the predicted precision drops below a floor,
/// instead of silently producing garbage (or panicking on an exhausted
/// modulus chain).
///
/// This is the evaluator a *server* should drive client ciphertexts with:
/// the depth of the circuit a client requests is data the server does not
/// control, so running out of noise budget must be a recoverable, typed
/// condition.
#[derive(Debug, Clone, Copy)]
pub struct GuardedEvaluator<'a> {
    ev: Evaluator<'a>,
    model: NoiseModel,
    min_precision_bits: f64,
}

impl<'a> GuardedEvaluator<'a> {
    /// Binds a context with a precision floor (in bits). Results whose
    /// predicted signal-to-noise falls below the floor are rejected.
    pub fn new(ctx: &'a CkksContext, min_precision_bits: f64) -> Self {
        Self {
            ev: Evaluator::new(ctx),
            model: NoiseModel::new(ctx.params()),
            min_precision_bits,
        }
    }

    /// The underlying unguarded evaluator.
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.ev
    }

    /// Starts tracking a fresh encryption whose slots are bounded by
    /// `magnitude`.
    pub fn track_fresh(&self, ct: Ciphertext, magnitude: f64) -> TrackedCiphertext {
        TrackedCiphertext {
            ct,
            tracker: self.model.fresh(magnitude),
        }
    }

    /// Predicted remaining precision of a tracked ciphertext.
    pub fn precision_bits(&self, x: &TrackedCiphertext) -> f64 {
        self.model.precision_bits(x.tracker)
    }

    fn guard(&self, op: &'static str, t: NoiseTracker) -> Result<NoiseTracker, EvalError> {
        let bits = self.model.precision_bits(t);
        if bits < self.min_precision_bits {
            Err(EvalError::NoiseBudgetExhausted {
                op,
                precision_bits: bits,
                required_bits: self.min_precision_bits,
            })
        } else {
            Ok(t)
        }
    }

    fn need_level(&self, op: &'static str, ct: &Ciphertext) -> Result<(), EvalError> {
        if ct.level() <= 1 {
            Err(EvalError::LevelsExhausted {
                op,
                level: ct.level(),
            })
        } else {
            Ok(())
        }
    }

    /// Guarded HADD.
    pub fn add(
        &self,
        x: &TrackedCiphertext,
        y: &TrackedCiphertext,
    ) -> Result<TrackedCiphertext, EvalError> {
        let tracker = self.guard("add", self.model.add(x.tracker, y.tracker))?;
        Ok(TrackedCiphertext {
            ct: self.ev.add(&x.ct, &y.ct),
            tracker,
        })
    }

    /// Guarded HMULT + relinearize + rescale.
    pub fn mul_relin_rescale(
        &self,
        x: &TrackedCiphertext,
        y: &TrackedCiphertext,
        relin: &EvalKey,
    ) -> Result<TrackedCiphertext, EvalError> {
        self.need_level("mul_relin_rescale", &x.ct)?;
        let tracker = self.guard("mul_relin_rescale", self.model.mul(x.tracker, y.tracker))?;
        Ok(TrackedCiphertext {
            ct: self.ev.mul_relin_rescale(&x.ct, &y.ct, relin),
            tracker,
        })
    }

    /// Guarded squaring (+relinearize +rescale).
    pub fn square_rescale(
        &self,
        x: &TrackedCiphertext,
        relin: &EvalKey,
    ) -> Result<TrackedCiphertext, EvalError> {
        self.need_level("square_rescale", &x.ct)?;
        let tracker = self.guard("square_rescale", self.model.mul(x.tracker, x.tracker))?;
        Ok(TrackedCiphertext {
            ct: self.ev.rescale(&self.ev.square_relin(&x.ct, relin)),
            tracker,
        })
    }

    /// Guarded PMULT + rescale; `magnitude` bounds the plaintext slots.
    pub fn mul_plain_rescale(
        &self,
        x: &TrackedCiphertext,
        p: &Plaintext,
        magnitude: f64,
    ) -> Result<TrackedCiphertext, EvalError> {
        self.need_level("mul_plain_rescale", &x.ct)?;
        let tracker = self.guard(
            "mul_plain_rescale",
            self.model.mul_plain(x.tracker, magnitude),
        )?;
        Ok(TrackedCiphertext {
            ct: self.ev.rescale(&self.ev.mul_plain(&x.ct, p)),
            tracker,
        })
    }

    /// Guarded HROT: typed error (not a panic) when the key is absent.
    pub fn rotate(
        &self,
        x: &TrackedCiphertext,
        r: isize,
        keys: &KeySet,
    ) -> Result<TrackedCiphertext, EvalError> {
        let r_norm = r.rem_euclid(self.ev.ctx.slots() as isize);
        if r_norm == 0 {
            return Ok(x.clone());
        }
        let evk = keys
            .rotation(r_norm, self.ev.ctx.slots())
            .ok_or(EvalError::MissingRotationKey { distance: r_norm })?;
        let tracker = self.guard("rotate", self.model.rotate(x.tracker))?;
        let g = galois_for_rotation(self.ev.ctx.n(), r_norm);
        Ok(TrackedCiphertext {
            ct: self.ev.apply_galois(&x.ct, g, evk),
            tracker,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{max_error, Complex};
    use crate::encoding::Encoder;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ctx: CkksContext,
    }

    fn fixture() -> Fixture {
        Fixture {
            ctx: CkksContext::new(CkksParams::test_small()),
        }
    }

    fn keys(ctx: &CkksContext) -> crate::keys::KeySet {
        let mut rng = StdRng::seed_from_u64(21);
        KeyGenerator::new(ctx, &mut rng).generate(&[1, 2, 3, 5])
    }

    fn msg(m: usize, f: impl Fn(usize) -> Complex) -> Vec<Complex> {
        (0..m).map(f).collect()
    }

    #[test]
    fn add_sub_negate() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new(i as f64 * 1e-3, -0.5));
        let zb = msg(m, |i| Complex::new(0.25, i as f64 * -2e-3));
        let mut rng = StdRng::seed_from_u64(5);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let cb = ks
            .public
            .encrypt(&enc.encode(&zb, f.ctx.max_level()), &mut rng);

        let sum = enc.decode(&ks.secret.decrypt(&ev.add(&ca, &cb)));
        let want_sum: Vec<Complex> = za.iter().zip(&zb).map(|(&x, &y)| x + y).collect();
        assert!(max_error(&want_sum, &sum) < 1e-6);

        let diff = enc.decode(&ks.secret.decrypt(&ev.sub(&ca, &cb)));
        let want_diff: Vec<Complex> = za.iter().zip(&zb).map(|(&x, &y)| x - y).collect();
        assert!(max_error(&want_diff, &diff) < 1e-6);

        let neg = enc.decode(&ks.secret.decrypt(&ev.negate(&ca)));
        let want_neg: Vec<Complex> = za.iter().map(|&x| -x).collect();
        assert!(max_error(&want_neg, &neg) < 1e-6);
    }

    #[test]
    fn plain_ops() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new((i % 7) as f64 * 0.1, 0.02));
        let zp = msg(m, |i| Complex::new(0.5, (i % 3) as f64 * 0.1));
        let mut rng = StdRng::seed_from_u64(6);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let pp = enc.encode(&zp, f.ctx.max_level());

        let prod = ev.rescale(&ev.mul_plain(&ca, &pp));
        let out = enc.decode(&ks.secret.decrypt(&prod));
        let want: Vec<Complex> = za.iter().zip(&zp).map(|(&x, &y)| x * y).collect();
        assert!(max_error(&want, &out) < 1e-5);

        let sum = ev.add_plain(&ca, &enc.encode(&zp, f.ctx.max_level()));
        let out2 = enc.decode(&ks.secret.decrypt(&sum));
        let want2: Vec<Complex> = za.iter().zip(&zp).map(|(&x, &y)| x + y).collect();
        assert!(max_error(&want2, &out2) < 1e-6);
    }

    #[test]
    fn mul_by_i_is_exact_and_keeps_level_and_scale() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let z = msg(m, |i| {
            Complex::new((i % 5) as f64 * 0.1 - 0.2, 0.3 - i as f64 * 1e-3)
        });
        let mut rng = StdRng::seed_from_u64(8);
        let full = ks
            .public
            .encrypt(&enc.encode(&z, f.ctx.max_level()), &mut rng);
        for ct in [full.clone(), ev.mod_switch_to(&full, 2)] {
            let got = ev.mul_by_i(&ct);
            assert_eq!(got.level(), ct.level());
            assert_eq!(got.scale(), ct.scale());
            // Exact: the decoded slots are i times the input's decoded slots,
            // noise included.
            let before = enc.decode(&ks.secret.decrypt(&ct));
            let after = enc.decode(&ks.secret.decrypt(&got));
            let want: Vec<Complex> = before.iter().map(|&x| Complex::I * x).collect();
            assert!(max_error(&want, &after) < 1e-9);
            let want: Vec<Complex> = z.iter().map(|&x| Complex::I * x).collect();
            assert!(max_error(&want, &after) < 1e-6);
        }
    }

    #[test]
    fn scalar_ops() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new(0.1 * (i % 5) as f64, -0.3));
        let mut rng = StdRng::seed_from_u64(8);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);

        let scaled = ev.rescale(&ev.mul_scalar(&ca, -1.5));
        let out = enc.decode(&ks.secret.decrypt(&scaled));
        let want: Vec<Complex> = za.iter().map(|&x| x.scale(-1.5)).collect();
        assert!(max_error(&want, &out) < 1e-5);

        let tripled = ev.mul_integer(&ca, 3);
        let out = enc.decode(&ks.secret.decrypt(&tripled));
        let want: Vec<Complex> = za.iter().map(|&x| x.scale(3.0)).collect();
        assert!(max_error(&want, &out) < 1e-5);

        let shifted = ev.add_scalar(&ca, 0.75);
        let out = enc.decode(&ks.secret.decrypt(&shifted));
        let want: Vec<Complex> = za.iter().map(|&x| x + Complex::new(0.75, 0.0)).collect();
        assert!(max_error(&want, &out) < 1e-5);
    }

    #[test]
    fn hmult_matches_plain_product() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new(((i % 11) as f64 - 5.0) * 0.1, 0.2));
        let zb = msg(m, |i| Complex::new(0.3, ((i % 7) as f64 - 3.0) * 0.1));
        let mut rng = StdRng::seed_from_u64(13);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let cb = ks
            .public
            .encrypt(&enc.encode(&zb, f.ctx.max_level()), &mut rng);

        let prod = ev.mul_relin_rescale(&ca, &cb, &ks.relin);
        assert_eq!(prod.level(), f.ctx.max_level() - 1);
        let out = enc.decode(&ks.secret.decrypt(&prod));
        let want: Vec<Complex> = za.iter().zip(&zb).map(|(&x, &y)| x * y).collect();
        let err = max_error(&want, &out);
        assert!(err < 1e-4, "HMULT error too large: {err}");
    }

    #[test]
    fn square_matches_mul_self() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new(((i % 9) as f64 - 4.0) * 0.1, -0.1));
        let mut rng = StdRng::seed_from_u64(14);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let sq = ev.rescale(&ev.square_relin(&ca, &ks.relin));
        let out = enc.decode(&ks.secret.decrypt(&sq));
        let want: Vec<Complex> = za.iter().map(|&x| x * x).collect();
        assert!(max_error(&want, &out) < 1e-4);
    }

    #[test]
    fn rotation_shifts_slots() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new(i as f64 * 1e-3, (m - i) as f64 * 1e-3));
        let mut rng = StdRng::seed_from_u64(15);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        for r in [1isize, 2, 5] {
            let rot = ev.rotate(&ca, r, &ks);
            let out = enc.decode(&ks.secret.decrypt(&rot));
            let want: Vec<Complex> = (0..m).map(|j| za[(j + r as usize) % m]).collect();
            let err = max_error(&want, &out);
            assert!(err < 1e-4, "rotation {r} error: {err}");
        }
    }

    #[test]
    fn hoisted_rotation_matches_direct() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new((i as f64).cos() * 0.3, 0.0));
        let mut rng = StdRng::seed_from_u64(16);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let hoisted = ev.key_switcher().decompose_mod_up(ca.a(), ca.level());
        for r in [1isize, 3] {
            let direct = ev.rotate(&ca, r, &ks);
            let viah = ev.rotate_hoisted(&ca, &hoisted, r, &ks);
            let d1 = enc.decode(&ks.secret.decrypt(&direct));
            let d2 = enc.decode(&ks.secret.decrypt(&viah));
            assert!(max_error(&d1, &d2) < 1e-5, "hoisted must match direct");
        }
    }

    #[test]
    fn conjugation() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new(0.1, i as f64 * 1e-3));
        let mut rng = StdRng::seed_from_u64(17);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let conj = ev.conjugate(&ca, &ks);
        let out = enc.decode(&ks.secret.decrypt(&conj));
        let want: Vec<Complex> = za.iter().map(|z| z.conj()).collect();
        assert!(max_error(&want, &out) < 1e-4);
    }

    #[test]
    fn depth_chain_multiplications() {
        // Exercise the whole level chain: ((x²)²)… down to level 1.
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |_| Complex::new(0.9, 0.0));
        let mut rng = StdRng::seed_from_u64(18);
        let mut ct = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let mut expect = 0.9f64;
        while ct.level() > 1 {
            ct = ev.rescale(&ev.square_relin(&ct, &ks.relin));
            expect = expect * expect;
            let out = enc.decode(&ks.secret.decrypt(&ct));
            assert!(
                (out[0].re - expect).abs() < 1e-3,
                "level {}: got {} want {expect}",
                ct.level(),
                out[0].re
            );
        }
    }

    #[test]
    fn mod_switch_preserves_message() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let m = f.ctx.slots();
        let za = msg(m, |i| Complex::new(i as f64 * 1e-4, 0.5));
        let mut rng = StdRng::seed_from_u64(19);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let dropped = ev.mod_switch_to(&ca, 2);
        assert_eq!(dropped.level(), 2);
        let out = enc.decode(&ks.secret.decrypt(&dropped));
        assert!(max_error(&za, &out) < 1e-5);
    }

    #[test]
    fn guarded_chain_stays_correct_until_typed_exhaustion() {
        // A deep squaring chain on the guarded evaluator: results decrypt
        // correctly while the guard passes, and the failure mode is a typed
        // NoiseBudgetExhausted (or LevelsExhausted), never garbage.
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(10)
                .levels(8)
                .alpha(2)
                .scale_bits(40)
                .build(),
        );
        let mut rng = StdRng::seed_from_u64(77);
        let ks = KeyGenerator::new(&ctx, &mut rng).generate(&[]);
        let enc = Encoder::new(&ctx);
        let gv = GuardedEvaluator::new(&ctx, 14.0);
        let za = msg(ctx.slots(), |_| Complex::new(0.95, 0.0));
        let ct = ks
            .public
            .encrypt(&enc.encode(&za, ctx.max_level()), &mut rng);
        let mut t = gv.track_fresh(ct, 0.95);
        let mut expect = 0.95f64;
        let mut depth = 0;
        let err = loop {
            match gv.square_rescale(&t, &ks.relin) {
                Ok(next) => {
                    t = next;
                    expect *= expect;
                    depth += 1;
                    let out = enc.decode(&ks.secret.decrypt(&t.ct));
                    assert!(
                        (out[0].re - expect).abs() < 1e-2,
                        "depth {depth}: guarded result must stay accurate"
                    );
                }
                Err(e) => break e,
            }
        };
        assert!(depth >= 2, "budget must allow some depth, got {depth}");
        match err {
            EvalError::NoiseBudgetExhausted {
                precision_bits,
                required_bits,
                ..
            } => {
                assert!(precision_bits < required_bits);
                assert_eq!(required_bits, 14.0);
            }
            EvalError::LevelsExhausted { .. } => {}
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn guarded_rotate_reports_missing_key() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let gv = GuardedEvaluator::new(&f.ctx, 4.0);
        let za = msg(f.ctx.slots(), |_| Complex::new(0.1, 0.0));
        let mut rng = StdRng::seed_from_u64(78);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let t = gv.track_fresh(ca, 0.1);
        let err = gv.rotate(&t, 7, &ks).unwrap_err();
        assert_eq!(err, EvalError::MissingRotationKey { distance: 7 });
        assert!(err.to_string().contains("distance 7"));
    }

    #[test]
    fn guarded_rescale_at_floor_level_is_typed() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let gv = GuardedEvaluator::new(&f.ctx, 0.0);
        let za = msg(f.ctx.slots(), |_| Complex::new(0.5, 0.0));
        let mut rng = StdRng::seed_from_u64(79);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let floor = ev.mod_switch_to(&ca, 1);
        let t = gv.track_fresh(floor, 0.5);
        let err = gv.square_rescale(&t, &ks.relin).unwrap_err();
        assert_eq!(
            err,
            EvalError::LevelsExhausted {
                op: "square_rescale",
                level: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "missing rotation key")]
    fn missing_rotation_key_panics() {
        let f = fixture();
        let ks = keys(&f.ctx);
        let enc = Encoder::new(&f.ctx);
        let ev = Evaluator::new(&f.ctx);
        let za = msg(f.ctx.slots(), |_| Complex::ZERO);
        let mut rng = StdRng::seed_from_u64(20);
        let ca = ks
            .public
            .encrypt(&enc.encode(&za, f.ctx.max_level()), &mut rng);
        let _ = ev.rotate(&ca, 7, &ks);
    }
}
