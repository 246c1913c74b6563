//! CKKS bootstrapping (§II-C): ModRaise → CoeffToSlot → EvalMod →
//! SlotToCoeff.
//!
//! Bootstrapping restores the modulus chain of an exhausted ciphertext. A
//! level-1 ciphertext is reinterpreted modulo the full chain (ModRaise),
//! which changes the plaintext polynomial from `p` to `p + q_0·I` for a
//! small integer polynomial `I`. The homomorphic pipeline then removes
//! `q_0·I`:
//!
//! 1. **CoeffToSlot** — two homomorphic linear transforms (plus a
//!    conjugation) move the polynomial *coefficients* into message slots.
//! 2. **EvalMod** — a Chebyshev approximation of `sin(2πt)/2π` evaluates
//!    `t mod 1` on each slot (valid because `|p/q_0| ≪ 1` and `I` is a
//!    small integer).
//! 3. **SlotToCoeff** — the forward transform moves the cleaned values back
//!    into coefficients.
//!
//! **Three transforms, not six.** Coefficient `k + M` of the upper half
//! differs from coefficient `k` by the root `ζ^{5^j·M} = i^{5^j} = i`, so
//! the upper-half matrices are `U1 = −i·U0`, `U1c = i·U0c` and `E1 = i·E0`.
//! CoeffToSlot therefore computes `u = U0·x` and `v = U0c·x̄` once and forms
//! `c0 = u + v` and `c1 = i·(v − u)`; SlotToCoeff computes
//! `z = E0·(w0 + i·w1)`. Multiplying by `i` is the exact monomial product
//! [`Evaluator::mul_by_i`], which costs no level.
//!
//! The linear transforms here are evaluated as *dense* DFT matrices via
//! double-hoisted BSGS. Each transform's plaintext diagonals are encoded
//! once per level, on the first bootstrap that needs them (the paper
//! prepares them offline), and reused by every later call. The paper's
//! fftIter-decomposed CoeffToSlot (MAD \[2\], Fig. 3) is a
//! performance-level decomposition; its op-level structure is modeled in
//! `anaheim-core::ir` while this functional implementation keeps the
//! single-stage matrices (see DESIGN.md substitution notes).
//!
//! Precision notes: we use the plain sine (no arcsine correction), so the
//! result carries an `O((2π·m/q_0)²/6)` relative error in addition to the
//! Chebyshev approximation error scaled by `q_0/Δ` — adequate for the
//! functional tests at toy ring degrees; the paper's quality-targeting
//! tricks (double-prime scaling etc.) address the same issue at scale.

use crate::chebyshev::ChebyshevSeries;
use crate::ciphertext::Ciphertext;
use crate::complex::Complex;
use crate::context::CkksContext;
use crate::encoding::Encoder;
use crate::eval::Evaluator;
use crate::keys::KeySet;
use crate::lintrans::{LinearTransform, PreparedTransform};
use ckks_math::poly::Poly;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Tuning knobs for bootstrapping.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Bound `K` on the ModRaise integer polynomial `I` (depends on the
    /// secret Hamming weight; `K ≈ 10·√(h/12)` is a conservative choice).
    pub k_bound: usize,
    /// Degree of the Chebyshev approximation of sine on `[-K, K]`.
    pub sin_degree: usize,
    /// Baby-step count for the BSGS linear transforms.
    pub bsgs_babies: usize,
    /// `Some((c2s, s2c))` switches CoeffToSlot/SlotToCoeff to the
    /// fftIter-decomposed butterfly factors (MAD \[2\], Fig. 3) instead of
    /// the dense single-stage DFT matrices.
    pub fft_iter: Option<(usize, usize)>,
}

impl BootstrapConfig {
    /// A configuration adequate for sparse secrets (`h ≤ 32`) at test sizes.
    pub fn sparse_default() -> Self {
        Self {
            k_bound: 12,
            sin_degree: 119,
            bsgs_babies: 16,
            fft_iter: None,
        }
    }

    /// The sparse default with fftIter-decomposed transforms.
    pub fn decomposed(c2s: usize, s2c: usize) -> Self {
        Self {
            fft_iter: Some((c2s, s2c)),
            // The Re/Im split doubles the EvalMod input range, so the sine
            // approximation needs roughly twice the degree.
            sin_degree: 239,
            ..Self::sparse_default()
        }
    }
}

/// `ζ^t` for `t ∈ [0, 2N)` (`ζ = e^{iπ/N}`) and the rotation group
/// `5^j mod 2N` for `j < N/2`, matching the Encoder's convention.
fn embedding_tables(n: usize) -> (Vec<Complex>, Vec<usize>) {
    let two_n = 2 * n;
    let zeta = (0..two_n)
        .map(|t| Complex::from_angle(std::f64::consts::PI * t as f64 / n as f64))
        .collect();
    let mut rot = Vec::with_capacity(n / 2);
    let mut g = 1usize;
    for _ in 0..n / 2 {
        rot.push(g);
        g = (g * 5) % two_n;
    }
    (zeta, rot)
}

/// A bootstrap transform and its prepared plaintexts, encoded on first use
/// at each level (the paper prepares them offline, §II-C).
#[derive(Debug)]
struct Staged {
    transform: LinearTransform,
    prepared: Mutex<BTreeMap<usize, Arc<PreparedTransform>>>,
}

impl Staged {
    fn new(transform: LinearTransform) -> Self {
        Self {
            transform,
            prepared: Mutex::new(BTreeMap::new()),
        }
    }

    /// Applies the transform with `n1` baby steps, preparing it for `ct`'s
    /// level first if no earlier call did.
    fn eval(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        keys: &KeySet,
        n1: usize,
    ) -> Ciphertext {
        let level = ct.level();
        let cached = self.cache().get(&level).cloned();
        let prepared = cached.unwrap_or_else(|| {
            // Encode outside the lock; a racing caller's copy is identical.
            let fresh = Arc::new(self.transform.prepare(enc, level, n1));
            Arc::clone(self.cache().entry(level).or_insert(fresh))
        });
        prepared.eval(ev, ct, keys)
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, BTreeMap<usize, Arc<PreparedTransform>>> {
        // Every update is one insert of a finished value, so a map poisoned
        // by a panicking holder is still valid.
        self.prepared.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bytes held by the prepared plaintexts so far.
    fn prepared_bytes(&self) -> usize {
        self.cache().values().map(|p| p.size_bytes()).sum()
    }
}

/// Precomputed bootstrapping state: transform matrices and the EvalMod
/// series.
#[derive(Debug)]
pub struct Bootstrapper<'a> {
    ctx: &'a CkksContext,
    config: BootstrapConfig,
    /// CoeffToSlot: `t_k = Σ_j U0[k][j]·v_j + Σ_j U0c[k][j]·conj(v)_j`
    /// (the upper half `k + M` follows from the module-level identities).
    cts_u0: Staged,
    cts_u0c: Staged,
    /// SlotToCoeff: `z_j = Σ_k E0[j][k]·(w0 + i·w1)_k`.
    stc_e0: Staged,
    eval_mod: ChebyshevSeries,
    /// Decomposed CoeffToSlot factors (applied first → last).
    cts_factors: Vec<Staged>,
    /// Decomposed SlotToCoeff factors.
    stc_factors: Vec<Staged>,
    /// EvalMod series for the decomposed path (doubled input range from
    /// the Re/Im split).
    eval_mod_doubled: ChebyshevSeries,
}

impl<'a> Bootstrapper<'a> {
    /// Precomputes all matrices and the sine approximation.
    ///
    /// The context's secret Hamming weight should be consistent with
    /// `config.k_bound` (see [`BootstrapConfig`]).
    pub fn new(ctx: &'a CkksContext, config: BootstrapConfig) -> Self {
        let n = ctx.n();
        let m = ctx.slots();
        let two_n = 2 * n;
        let (zeta, rot) = embedding_tables(n);
        // CoeffToSlot carries the 1/(2M) of the inverse embedding AND the
        // factor θ = Δ/q0 that brings the output to the canonical scale:
        // after the transform (at tracked scale ≈ q0·Δ/q_drop) the slot
        // values are θ·t, so re-declaring the scale as (tracked·θ) yields
        // value t at scale ≈ Δ — the stable input the Chebyshev ladder
        // needs.
        let q0 = ctx.basis_q(1)[0].modulus().value() as f64;
        let delta = ctx.params().scale();
        let theta = delta / q0;
        let inv_2m = theta / (2.0 * m as f64);
        let mat = |f: &dyn Fn(usize, usize) -> Complex| -> Vec<Vec<Complex>> {
            (0..m).map(|r| (0..m).map(|c| f(r, c)).collect()).collect()
        };
        // CoeffToSlot matrices (§II-C / Fig. 1 CoeffToSlot).
        let u0 = mat(&|k, j| zeta[(rot[j] * k) % two_n].conj().scale(inv_2m));
        let u0c = mat(&|k, j| zeta[(rot[j] * k) % two_n].scale(inv_2m));
        // SlotToCoeff matrix.
        let e0 = mat(&|j, k| zeta[(rot[j] * k) % two_n]);

        // EvalMod: f(t) = C·sin(2πt)/(2π) with C = q0/Δ folded in, so the
        // output value is `p_k/Δ` when the input is `t = p_k/q0 + I_k`.
        let c = q0 / delta;
        let k = config.k_bound as f64;
        let eval_mod = ChebyshevSeries::interpolate(
            move |t| c * (2.0 * std::f64::consts::PI * t).sin() / (2.0 * std::f64::consts::PI),
            -(k + 1.0),
            k + 1.0,
            config.sin_degree,
        );

        // Decomposed transforms (§IV-C): butterfly-stage factors with θ
        // folded into the first CoeffToSlot factor.
        let (cts_factors, stc_factors) = match config.fft_iter {
            Some((c2s, s2c)) => {
                let fft = crate::specialfft::SpecialFft::new(n);
                (
                    fft.inv_factors(c2s, theta)
                        .into_iter()
                        .map(Staged::new)
                        .collect(),
                    fft.fwd_factors(s2c, 1.0)
                        .into_iter()
                        .map(Staged::new)
                        .collect(),
                )
            }
            None => (Vec::new(), Vec::new()),
        };
        // Doubled-range sine for the decomposed path: inputs are 2·t after
        // the conjugation split, so evaluate C·sin(π·u)/(2π) on ±2(K+1).
        let k2 = 2.0 * (k + 1.0);
        let eval_mod_doubled = ChebyshevSeries::interpolate(
            move |u| c * (std::f64::consts::PI * u).sin() / (2.0 * std::f64::consts::PI),
            -k2,
            k2,
            config.sin_degree,
        );

        Self {
            ctx,
            config,
            cts_u0: Staged::new(LinearTransform::from_matrix(m, &u0)),
            cts_u0c: Staged::new(LinearTransform::from_matrix(m, &u0c)),
            stc_e0: Staged::new(LinearTransform::from_matrix(m, &e0)),
            eval_mod: ChebyshevSeries::new(eval_mod.coeffs().to_vec(), -(k + 1.0), k + 1.0),
            cts_factors,
            stc_factors,
            eval_mod_doubled,
        }
    }

    /// The rotation distances key generation must cover.
    pub fn required_rotations(&self) -> Vec<isize> {
        let mut out = Vec::new();
        if self.config.fft_iter.is_some() {
            for t in self.cts_factors.iter().chain(self.stc_factors.iter()) {
                out.extend(t.transform.required_rotations_bsgs(self.config.bsgs_babies));
            }
        } else {
            for t in [&self.cts_u0, &self.cts_u0c, &self.stc_e0] {
                out.extend(t.transform.required_rotations_bsgs(self.config.bsgs_babies));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The configuration in effect.
    pub fn config(&self) -> &BootstrapConfig {
        &self.config
    }

    /// Bytes held by the plaintexts prepared so far: none before the first
    /// bootstrap, which encodes every transform's diagonals once.
    pub fn prepared_bytes(&self) -> usize {
        [&self.cts_u0, &self.cts_u0c, &self.stc_e0]
            .into_iter()
            .chain(&self.cts_factors)
            .chain(&self.stc_factors)
            .map(Staged::prepared_bytes)
            .sum()
    }

    /// ModRaise: reinterpret a level-1 ciphertext modulo the full chain.
    /// The returned ciphertext is at `max_level` with its scale *declared*
    /// as `q_0` (the standard trick making the slot values
    /// `t = p/q_0 + I`, §II-C).
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not at level 1.
    pub fn mod_raise(&self, ct: &Ciphertext) -> Ciphertext {
        assert_eq!(ct.level(), 1, "ModRaise expects a level-1 ciphertext");
        let q0ctx = &self.ctx.basis_q(1)[0];
        let q0 = q0ctx.modulus().value();
        let full = self.ctx.basis_q(self.ctx.max_level()).to_vec();
        let lift = |p: &Poly| {
            let mut c = p.clone();
            c.to_coeff();
            let m = q0ctx.modulus();
            let centered: Vec<i64> = c.limb(0).data().iter().map(|&x| m.to_centered(x)).collect();
            let mut out = Poly::from_coeff_i64(&full, &centered);
            out.to_eval();
            out
        };
        let mut raised =
            Ciphertext::new(lift(ct.b()), lift(ct.a()), ct.scale(), self.ctx.max_level());
        raised.set_scale(q0 as f64);
        let _ = q0;
        raised
    }

    /// Full bootstrap of a level-1 ciphertext: returns a ciphertext with the
    /// same message at a high level and exactly the canonical scale Δ.
    ///
    /// # Panics
    ///
    /// Panics if required rotation keys are missing or the input is not at
    /// level 1 with scale ≈ Δ.
    pub fn bootstrap(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        keys: &KeySet,
    ) -> Ciphertext {
        if self.config.fft_iter.is_some() {
            return self.bootstrap_decomposed(ev, enc, ct, keys);
        }
        let delta = self.ctx.params().scale();
        assert!(
            (ct.scale() / delta - 1.0).abs() < 0.01,
            "input scale must be ≈ Δ"
        );
        let n1 = self.config.bsgs_babies;

        // 1. ModRaise.
        let raised = self.mod_raise(ct);
        let q0 = self.ctx.basis_q(1)[0].modulus().value() as f64;
        let theta = delta / q0;
        // 2. CoeffToSlot: two output ciphertexts of coefficient values. The
        // matrices carry θ = Δ/q0, so re-declaring the scale by ×θ lands the
        // values t_k at scale ≈ Δ. With u = U0·x and v = U0c·x̄, the lower
        // half is u + v and the upper half i·(v − u).
        let conj = ev.conjugate(&raised, keys);
        let u = self.cts_u0.eval(ev, enc, &raised, keys, n1);
        let v = self.cts_u0c.eval(ev, enc, &conj, keys, n1);
        let mut c0 = ev.rescale(&ev.add(&u, &v));
        c0.set_scale(c0.scale() * theta);
        let mut c1 = ev.mul_by_i(&ev.rescale(&ev.sub(&v, &u)));
        c1.set_scale(c1.scale() * theta);

        // 3. EvalMod on both halves.
        let w0 = self.eval_mod.eval_homomorphic(ev, &c0, &keys.relin);
        let w1 = self.eval_mod.eval_homomorphic(ev, &c1, &keys.relin);

        // 4. SlotToCoeff: E0·w0 + E1·w1 = E0·(w0 + i·w1).
        let (w0, w1) = ev.align_levels(&w0, &w1);
        let w = ev.add(&w0, &ev.mul_by_i(&w1));
        let out = ev.rescale(&self.stc_e0.eval(ev, enc, &w, keys, n1));

        // 5. Exact return to the canonical scale.
        ev.rescale_to_exact_scale(&out, delta)
    }

    /// The fftIter-decomposed pipeline: butterfly-factor CoeffToSlot
    /// (leaving bit-reversed order), a conjugation Re/Im split, EvalMod on
    /// both halves, recombination, and butterfly-factor SlotToCoeff (the
    /// bit reversals cancel because EvalMod is slot-pointwise).
    fn bootstrap_decomposed(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        keys: &KeySet,
    ) -> Ciphertext {
        let delta = self.ctx.params().scale();
        assert!(
            (ct.scale() / delta - 1.0).abs() < 0.01,
            "input scale must be ≈ Δ"
        );
        let n1 = self.config.bsgs_babies;
        let q0 = self.ctx.basis_q(1)[0].modulus().value() as f64;
        let theta = delta / q0;

        // 1. ModRaise.
        let raised = self.mod_raise(ct);

        // 2. CoeffToSlot as fftIter sparse factors; θ rides on the first.
        let mut cur = raised;
        for (i, f) in self.cts_factors.iter().enumerate() {
            let mut next = ev.rescale(&f.eval(ev, enc, &cur, keys, n1));
            if i == 0 {
                next.set_scale(next.scale() * theta);
            }
            cur = next;
        }

        // 3. Re/Im split: slots hold w = c_re + i·c_im (bit-reversed).
        let conj = ev.conjugate(&cur, keys);
        let re2 = ev.add(&cur, &conj); // 2·Re(w)
        let im2 = ev.mul_by_i(&ev.sub(&conj, &cur)); // i·(−2i·Im(w)) = 2·Im(w)

        // 4. EvalMod on the doubled values.
        let w_re = self
            .eval_mod_doubled
            .eval_homomorphic(ev, &re2, &keys.relin);
        let w_im = self
            .eval_mod_doubled
            .eval_homomorphic(ev, &im2, &keys.relin);

        // 5. Recombine: w' = w_re + i·w_im.
        let (w_re, w_im) = ev.align_levels(&w_re, &w_im);
        let mut recombined = ev.add(&w_re, &ev.mul_by_i(&w_im));

        // 6. SlotToCoeff factors.
        for f in &self.stc_factors {
            recombined = ev.rescale(&f.eval(ev, enc, &recombined, keys, n1));
        }

        // 7. Exact return to the canonical scale.
        ev.rescale_to_exact_scale(&recombined, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_error;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bootstrap_params() -> CkksParams {
        // Toy ring degree: functionally complete, *not* secure. The sparse
        // secret (h = 16) keeps the ModRaise bound K small (Table IV uses
        // sparse-secret encapsulation for the same reason).
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

    #[test]
    fn mod_raise_coefficients_shift_by_q0_multiples() {
        // ModRaise changes the plaintext polynomial from p to p + q0·I with
        // a *small integer* polynomial I — a statement about coefficients,
        // not slots (I's evaluations at the roots are not integers).
        let params = bootstrap_params();
        let ctx = CkksContext::new(params);
        let mut rng = StdRng::seed_from_u64(61);
        let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[]);
        let enc = Encoder::new(&ctx);
        let bts = Bootstrapper::new(&ctx, BootstrapConfig::sparse_default());

        let m = ctx.slots();
        let msg: Vec<Complex> = (0..m)
            .map(|i| Complex::new(0.3 - i as f64 * 1e-3, 0.0))
            .collect();
        let ct = keys.public.encrypt(&enc.encode(&msg, 1), &mut rng);
        let raised = bts.mod_raise(&ct);
        assert_eq!(raised.level(), ctx.max_level());

        let q0 = ctx.basis_q(1)[0].modulus().value();
        let delta = ctx.params().scale();
        let p_ref = enc.embed(&msg, delta);

        let mut pt = keys.secret.decrypt(&raised).into_poly();
        pt.to_coeff();
        let crt = ctx.crt(ctx.max_level());
        let cfg = BootstrapConfig::sparse_default();
        for (k, &p_k) in p_ref.iter().enumerate().take(ctx.n()) {
            let residues: Vec<u64> = (0..ctx.max_level()).map(|i| pt.limb(i).data()[k]).collect();
            let v = crt.reconstruct_centered_f64(&residues);
            let r = v - p_k as f64;
            let i_k = (r / q0 as f64).round();
            let noise = (r - i_k * q0 as f64).abs();
            assert!(noise < 2f64.powi(25), "coefficient {k}: noise {noise}");
            assert!(
                i_k.abs() <= cfg.k_bound as f64,
                "|I_{k}| = {i_k} exceeds K = {}",
                cfg.k_bound
            );
        }
    }

    /// The flagship functional test: a full bootstrap at toy parameters.
    #[test]
    fn full_bootstrap_recovers_message_and_levels() {
        let params = bootstrap_params();
        let ctx = CkksContext::new(params);
        let bts = Bootstrapper::new(&ctx, BootstrapConfig::sparse_default());
        let mut rng = StdRng::seed_from_u64(62);
        let rotations = bts.required_rotations();
        let keys = KeyGenerator::new(&ctx, &mut rng).generate(&rotations);
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);

        let m = ctx.slots();
        let mut rng2 = StdRng::seed_from_u64(63);
        let msg: Vec<Complex> = (0..m)
            .map(|_| Complex::new(rng2.gen_range(-0.5..0.5), rng2.gen_range(-0.5..0.5)))
            .collect();
        // Encrypt at level 1: an exhausted ciphertext.
        let ct = keys.public.encrypt(&enc.encode(&msg, 1), &mut rng);
        assert_eq!(ct.level(), 1);

        let boosted = bts.bootstrap(&ev, &enc, &ct, &keys);
        assert!(
            boosted.level() >= 4,
            "bootstrapping must restore usable levels, got {}",
            boosted.level()
        );
        assert_eq!(boosted.scale(), ctx.params().scale());

        let out = enc.decode(&keys.secret.decrypt(&boosted));
        let err = max_error(&msg, &out);
        assert!(err < 5e-2, "bootstrap error too large: {err}");

        // And the restored ciphertext is actually usable: square it.
        let sq = ev.rescale(&ev.square_relin(&boosted, &keys.relin));
        let out2 = enc.decode(&keys.secret.decrypt(&sq));
        let want2: Vec<Complex> = msg.iter().map(|&z| z * z).collect();
        assert!(max_error(&want2, &out2) < 1e-1);
    }

    #[test]
    fn eval_mod_series_approximates_mod() {
        let params = bootstrap_params();
        let ctx = CkksContext::new(params);
        let bts = Bootstrapper::new(&ctx, BootstrapConfig::sparse_default());
        let q0 = ctx.basis_q(1)[0].modulus().value() as f64;
        let delta = ctx.params().scale();
        // For t = x + I (|x| small, I integer), f(t) ≈ (q0/Δ)·x.
        for i_part in [-8i32, -3, 0, 5, 11] {
            for x in [-0.002f64, 0.0005, 0.0019] {
                let t = x + i_part as f64;
                let got = bts.eval_mod.eval_plain(t);
                let want = q0 / delta * x;
                assert!(
                    (got - want).abs() < 2e-3 * (q0 / delta),
                    "t = {t}: got {got}, want {want}"
                );
            }
        }
    }

    /// The decomposed (fftIter) pipeline must bootstrap correctly too —
    /// this exercises the butterfly factors, the bit-reversal cancellation,
    /// and the Re/Im conjugation split end to end.
    #[test]
    fn decomposed_bootstrap_recovers_message() {
        let params = CkksParams::builder()
            .log_n(9)
            .levels(26)
            .alpha(4)
            .scale_bits(42)
            .q0_bits(50)
            .p_bits(55)
            .hamming_weight(16)
            .build();
        let ctx = CkksContext::new(params);
        let bts = Bootstrapper::new(&ctx, BootstrapConfig::decomposed(3, 3));
        let mut rng = StdRng::seed_from_u64(65);
        let keys = KeyGenerator::new(&ctx, &mut rng).generate(&bts.required_rotations());
        let enc = Encoder::new(&ctx);
        let ev = Evaluator::new(&ctx);

        let m = ctx.slots();
        let mut rng2 = StdRng::seed_from_u64(66);
        let msg: Vec<Complex> = (0..m)
            .map(|_| Complex::new(rng2.gen_range(-0.5..0.5), rng2.gen_range(-0.5..0.5)))
            .collect();
        let ct = keys.public.encrypt(&enc.encode(&msg, 1), &mut rng);
        let boosted = bts.bootstrap(&ev, &enc, &ct, &keys);
        // Each ×i of the Re/Im split is an exact monomial product that
        // consumes no level, so 11 of the 26 levels remain.
        assert!(
            boosted.level() >= 11,
            "decomposed bootstrap must leave usable levels, got {}",
            boosted.level()
        );
        let out = enc.decode(&keys.secret.decrypt(&boosted));
        let err = max_error(&msg, &out);
        assert!(err < 8e-2, "decomposed bootstrap error too large: {err}");
    }

    #[test]
    fn upper_half_matrices_are_i_multiples_of_the_lower_half() {
        // ζ^{5^j·M} = i^{5^j} = i, so the upper-half matrices follow from
        // the lower half: U1 = −i·U0, U1c = i·U0c and E1 = i·E0.
        let n = 1 << 9;
        let (m, two_n) = (n / 2, 2 * n);
        let (zeta, rot) = embedding_tables(n);
        let i = Complex::I;
        let mut worst = 0.0f64;
        for k in 0..m {
            for j in 0..m {
                let lo = zeta[(rot[j] * k) % two_n];
                let hi = zeta[(rot[j] * (k + m)) % two_n];
                worst = worst
                    .max((hi.conj() - (-i) * lo.conj()).abs()) // U1 vs U0
                    .max((hi - i * lo).abs()); // U1c vs U0c, and E1 vs E0
            }
        }
        assert!(worst < 1e-12, "identity error {worst:e}");
    }

    #[test]
    fn required_rotations_are_pinned_at_n9() {
        // Key generation for the N = 2^9 bootstrap: babies 1..=15 and every
        // giant step of n1 = 16.
        let ctx = CkksContext::new(bootstrap_params());
        let bts = Bootstrapper::new(&ctx, BootstrapConfig::sparse_default());
        let want: Vec<isize> = (1..16).chain((16..256).step_by(16)).collect();
        assert_eq!(bts.required_rotations(), want);
        assert_eq!(bts.prepared_bytes(), 0, "construction prepares nothing");
    }

    #[test]
    fn required_rotations_nonempty_and_valid() {
        let params = bootstrap_params();
        let ctx = CkksContext::new(params);
        let bts = Bootstrapper::new(&ctx, BootstrapConfig::sparse_default());
        let rots = bts.required_rotations();
        assert!(!rots.is_empty());
        assert!(rots.iter().all(|&r| r > 0 && (r as usize) < ctx.slots()));
    }
}
