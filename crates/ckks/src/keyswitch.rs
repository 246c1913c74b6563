//! Key switching: ModUp → KeyMult → ModDown (§II-B, Fig. 1).
//!
//! Given a polynomial `a` encrypted "under" some key `s'` and an evaluation
//! key for `s' → s`, key switching produces a pair `(B, A)` with
//! `B + A·s ≈ a·s'`. The three phases are:
//!
//! 1. **ModUp** — decompose `a` into `D` digits (groups of α primes) and
//!    basis-convert each digit to the extended basis `Q_ℓ ‖ P`;
//! 2. **KeyMult** — inner product of the digits with the evk pairs
//!    (element-wise MACs; this is the `PAccum⟨D⟩` PIM instruction of
//!    Table II);
//! 3. **ModDown** — divide by `P` and return to the `Q_ℓ` basis.
//!
//! *Hoisting* (§III-B) reuses phase 1 across many rotations: the digits are
//! computed once and phase 2/3 run per rotation — or, with further hoisting,
//! phase 3 runs once on an accumulated pair.
//!
//! All methods count their work in [`crate::opcount`] so that the Anaheim
//! cost model can be validated against the functional library.

use ckks_math::poly::{Format, Poly};

use crate::context::CkksContext;
use crate::fanout;
use crate::keys::EvalKey;
use crate::opcount;

/// Key-switching engine bound to a context.
#[derive(Debug, Clone, Copy)]
pub struct KeySwitcher<'a> {
    ctx: &'a CkksContext,
}

/// The hoisted state: ModUp'ed decomposition digits of a polynomial, each
/// over `Q_ℓ ‖ P` in the evaluation domain. Computing this once and reusing
/// it across `K` rotations is the hoisting optimization.
#[derive(Debug, Clone)]
pub struct HoistedDigits {
    digits: Vec<Poly>,
    level: usize,
}

impl HoistedDigits {
    /// The ModUp'ed digit polynomials.
    pub fn digits(&self) -> &[Poly] {
        &self.digits
    }

    /// The ciphertext level this decomposition was taken at.
    pub fn level(&self) -> usize {
        self.level
    }
}

impl<'a> KeySwitcher<'a> {
    /// Binds a context.
    pub fn new(ctx: &'a CkksContext) -> Self {
        Self { ctx }
    }

    /// Phase 1: decompose + ModUp.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not in the evaluation domain or its limb count
    /// differs from `level`.
    pub fn decompose_mod_up(&self, a: &Poly, level: usize) -> HoistedDigits {
        assert_eq!(a.format(), Format::Eval, "expected Eval input");
        assert_eq!(a.num_limbs(), level, "limb count must equal level");
        // INTT the input once (shared across digits).
        let mut coeff = a.duplicate();
        coeff.to_coeff();
        opcount::count_intt(level);
        // Digits are independent: let the tuner decide whether to fan them
        // out as chunked pool jobs (counted and run inline, see
        // `crate::fanout`). A digit's dominant work is the
        // `level + α − |digit|` forward NTTs of its ModUp, so the batch is
        // costed as NTT-class over that many rings.
        let num = self.ctx.num_digits(level);
        let alpha = self.ctx.params().alpha;
        let digit_ids: Vec<usize> = (0..num).collect();
        let decision =
            ckks_math::tune::decide(ckks_math::tune::OpClass::Ntt, num, (level + alpha) * a.n());
        let digits = fanout::map(decision, &digit_ids, |&j| {
            let digit_len = self.ctx.digit_range(level, j).len();
            opcount::count_bconv(digit_len, level + alpha - digit_len);
            opcount::count_ntt(level + alpha - digit_len);
            self.ctx.mod_up(level, j, &coeff, a)
        });
        HoistedDigits { digits, level }
    }

    /// Phase 2: inner product with an evaluation key, producing an
    /// accumulated pair over `Q_ℓ ‖ P` (both in the evaluation domain).
    ///
    /// # Panics
    ///
    /// Panics if the key has fewer digits than the decomposition.
    pub fn key_mult(&self, hoisted: &HoistedDigits, evk: &EvalKey) -> (Poly, Poly) {
        let level = hoisted.level;
        assert!(
            evk.num_digits() >= hoisted.digits.len(),
            "evk digit count too small"
        );
        let basis = self.ctx.basis_qp(level);
        // The key lives over the full `Q‖P` basis: limb `i` of the `Q_ℓ‖P`
        // accumulator reads key limb `i` below `ℓ` and the matching `P`
        // limb above it, in place.
        let max_level = self.ctx.max_level();
        let key_limb = |i: usize| if i < level { i } else { max_level + i - level };
        let (terms_b, terms_a): (Vec<_>, Vec<_>) = hoisted
            .digits
            .iter()
            .enumerate()
            .map(|(j, d)| {
                let (kb, ka) = evk.digit(j);
                ((d, kb), (d, ka))
            })
            .unzip();
        let mut acc_b = Poly::zero(&basis, Format::Eval);
        let mut acc_a = Poly::zero(&basis, Format::Eval);
        acc_b.fused_mac_assign(&terms_b, key_limb);
        acc_a.fused_mac_assign(&terms_a, key_limb);
        opcount::count_ew(2 * hoisted.digits.len() * basis.len());
        (acc_b, acc_a)
    }

    /// Phase 3: ModDown a pair back to `Q_ℓ`, dividing by `P`.
    pub fn mod_down_pair(&self, b: &Poly, a: &Poly, level: usize) -> (Poly, Poly) {
        let md = self.ctx.mod_down(level);
        let alpha = self.ctx.params().alpha;
        let down = |p: &Poly| {
            opcount::count_intt(alpha);
            opcount::count_bconv(alpha, level);
            opcount::count_ntt(level);
            opcount::count_ew(2 * level); // subtract + scale per limb
            md.apply(p)
        };
        (down(b), down(a))
    }

    /// Full key switch of `a` with `evk`: returns `(B, A)` over `Q_ℓ` with
    /// `B + A·s ≈ a·s'`.
    pub fn switch(&self, a: &Poly, evk: &EvalKey, level: usize) -> (Poly, Poly) {
        opcount::count_keyswitch();
        let hoisted = self.decompose_mod_up(a, level);
        let (b, a2) = self.key_mult(&hoisted, evk);
        self.mod_down_pair(&b, &a2, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use ckks_math::rns::CrtReconstructor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Checks that B + A·s ≈ a·s_target, i.e. key switching moved the key
    /// without destroying the value: the residual must be tiny relative to Q.
    #[test]
    fn switch_preserves_product_with_target_key() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(11);
        let mut kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.gen_secret();
        // Switch from s2 = s·s to s (the relinearization direction).
        let relin = kg.gen_relin(&sk);
        let level = ctx.max_level();

        let mut rng2 = StdRng::seed_from_u64(99);
        let a = ckks_math::sampling::uniform(
            &mut rng2,
            ctx.basis_q(level),
            ckks_math::poly::Format::Eval,
        );

        let ks = KeySwitcher::new(&ctx);
        let (b_out, a_out) = ks.switch(&a, &relin, level);

        // want = a·s², got = b_out + a_out·s; difference must be small.
        let s = sk.q_prefix(level);
        let mut s2 = s.clone();
        s2.mul_assign(&s);
        let mut want = a.clone();
        want.mul_assign(&s2);
        let mut got = b_out.clone();
        got.mac_assign(&a_out, &s);
        got.sub_assign(&want);
        got.to_coeff();

        let crt = CrtReconstructor::new(ctx.basis_q(level));
        let mut max_err: f64 = 0.0;
        for k in 0..ctx.n() {
            let residues: Vec<u64> = (0..level).map(|i| got.limb(i).data()[k]).collect();
            max_err = max_err.max(crt.reconstruct_centered_f64(&residues).abs());
        }
        // The key-switching error is ~ α·q_digit·E/P + ModDown error; with
        // P ≈ 2^120 and digits ≈ 2^100 this is far below 2^40.
        assert!(
            max_err < (2f64).powi(40),
            "key-switch residual too large: 2^{}",
            max_err.log2()
        );
        assert!(max_err > 0.0, "some error must exist (sanity)");
    }

    /// KeyMult reads the key's `Q_ℓ‖P` limbs in place; the path it
    /// replaced copied them out per digit (`key_prefix`) and ran one MAC per
    /// digit. Both must agree bit for bit at every level, including the
    /// levels whose decomposition has fewer digits than the key.
    #[test]
    fn key_mult_matches_the_prefix_copy_path_at_every_level() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(5);
        let mut kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.gen_secret();
        let relin = kg.gen_relin(&sk);
        let ks = KeySwitcher::new(&ctx);
        let mut fewer_digits = false;
        for level in 1..=ctx.max_level() {
            let a = ckks_math::sampling::uniform(&mut rng, ctx.basis_q(level), Format::Eval);
            let hoisted = ks.decompose_mod_up(&a, level);
            fewer_digits |= hoisted.digits().len() < relin.num_digits();
            let (got_b, got_a) = ks.key_mult(&hoisted, &relin);
            let basis = ctx.basis_qp(level);
            let mut want_b = Poly::zero(&basis, Format::Eval);
            let mut want_a = Poly::zero(&basis, Format::Eval);
            for (j, d) in hoisted.digits().iter().enumerate() {
                let (kb, ka) = relin.digit(j);
                want_b.mac_assign(d, &ctx.key_prefix(kb, level));
                want_a.mac_assign(d, &ctx.key_prefix(ka, level));
            }
            for (got, want) in [(&got_b, &want_b), (&got_a, &want_a)] {
                for (g, w) in got.limbs().zip(want.limbs()) {
                    assert_eq!(g.data(), w.data(), "level {level}");
                }
            }
        }
        assert!(fewer_digits, "no level hoisted fewer digits than the key");
    }

    #[test]
    fn hoisted_digits_structure() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(3);
        let level = 3;
        let a = ckks_math::sampling::uniform(
            &mut rng,
            ctx.basis_q(level),
            ckks_math::poly::Format::Eval,
        );
        let ks = KeySwitcher::new(&ctx);
        let h = ks.decompose_mod_up(&a, level);
        assert_eq!(h.level(), 3);
        assert_eq!(h.digits().len(), ctx.num_digits(3)); // ceil(3/2) = 2
        for d in h.digits() {
            assert_eq!(d.num_limbs(), level + ctx.params().alpha);
            assert_eq!(d.format(), Format::Eval);
        }
    }

    #[test]
    fn op_counts_recorded() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(4);
        let mut kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.gen_secret();
        let relin = kg.gen_relin(&sk);
        let level = ctx.max_level();
        let a = ckks_math::sampling::uniform(
            &mut rng,
            ctx.basis_q(level),
            ckks_math::poly::Format::Eval,
        );
        let ks = KeySwitcher::new(&ctx);
        let before = crate::opcount::snapshot();
        let _ = ks.switch(&a, &relin, level);
        let d = crate::opcount::snapshot().since(&before);
        assert_eq!(d.keyswitches, 1);
        // INTT: level (ModUp) + 2·α (ModDown) = 5 + 4
        assert_eq!(d.intt_limbs, 9);
        // NTT: per digit (level+α−digit_len) = (5+2-2)+(5+2-2)+(5+2-1)=16,
        // plus 2·level (ModDown) = 10.
        assert_eq!(d.ntt_limbs, 26);
        assert!(d.ew_limb_ops > 0);
        assert!(d.bconv_limb_products > 0);
    }
}
