//! Encoding and decoding via the canonical embedding.
//!
//! A message `u ∈ C^{N/2}` is mapped to a real-coefficient polynomial whose
//! evaluations at the primitive `2N`-th roots `ζ^{5^j}` equal the slots
//! (§II-A). The rotation-group ordering (`5^j`) makes the Galois map
//! `X ↦ X^5` a cyclic left shift of the slots, which is exactly HROT by 1.
//!
//! This implementation uses the direct `O(N·M)` transform with precomputed
//! root powers. The Anaheim performance model never charges for encoding
//! (plaintexts are prepared offline), and neither does a warm bootstrap:
//! its BSGS linear transforms encode every diagonal once, into a
//! [`crate::lintrans::PreparedTransform`] kept by the `Bootstrapper`, so
//! `embed` runs only on the first bootstrap at each level.

use crate::ciphertext::Plaintext;
use crate::complex::Complex;
use crate::context::CkksContext;
use ckks_math::poly::Poly;

/// Encoder/decoder bound to a context.
#[derive(Debug)]
pub struct Encoder<'a> {
    ctx: &'a CkksContext,
    /// `ζ^t` for `t ∈ [0, 2N)`, `ζ = e^{iπ/N}`.
    zeta_pows: Vec<Complex>,
    /// `5^j mod 2N` for `j ∈ [0, N/2)`.
    rot_group: Vec<usize>,
}

impl<'a> Encoder<'a> {
    /// Precomputes root powers for the context's ring degree.
    pub fn new(ctx: &'a CkksContext) -> Self {
        let n = ctx.n();
        let two_n = 2 * n;
        let zeta_pows = (0..two_n)
            .map(|t| Complex::from_angle(std::f64::consts::PI * t as f64 / n as f64))
            .collect();
        let mut rot_group = Vec::with_capacity(n / 2);
        let mut g = 1usize;
        for _ in 0..n / 2 {
            rot_group.push(g);
            g = (g * 5) % two_n;
        }
        Self {
            ctx,
            zeta_pows,
            rot_group,
        }
    }

    /// The context this encoder is bound to.
    pub fn context(&self) -> &'a CkksContext {
        self.ctx
    }

    /// The Galois element implementing a cyclic slot rotation by `r`
    /// (positive = left shift, as in HROT's `≪`).
    pub fn galois_for_rotation(&self, r: isize) -> u64 {
        let m = self.ctx.slots() as isize;
        let two_n = 2 * self.ctx.n() as u64;
        let r = r.rem_euclid(m) as u32;
        // 5^r mod 2N
        let mut g = 1u64;
        for _ in 0..r {
            g = (g * 5) % two_n;
        }
        g
    }

    /// The Galois element implementing complex conjugation of all slots.
    pub fn galois_for_conjugation(&self) -> u64 {
        2 * self.ctx.n() as u64 - 1
    }

    /// Encodes a slot vector at the context's default scale.
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() != N/2` or `level` is out of range.
    pub fn encode(&self, slots: &[Complex], level: usize) -> Plaintext {
        self.encode_with_scale(slots, level, self.ctx.params().scale())
    }

    /// Encodes at an explicit scale (needed when matching the scale of a
    /// partially rescaled ciphertext).
    ///
    /// # Panics
    ///
    /// Panics if the slot count is wrong, the level invalid, or a scaled
    /// coefficient overflows the representable range (message too large for
    /// the chosen scale).
    pub fn encode_with_scale(&self, slots: &[Complex], level: usize, scale: f64) -> Plaintext {
        let coeffs = self.embed(slots, scale);
        let mut poly = Poly::from_coeff_i64(self.ctx.basis_q(level), &coeffs);
        poly.to_eval();
        Plaintext::new(poly, scale, level)
    }

    /// The raw canonical-embedding step: slots → integer coefficients.
    ///
    /// Exposed for bootstrapping, which needs coefficient-space access.
    ///
    /// # Panics
    ///
    /// Panics on slot-count mismatch or coefficient overflow.
    pub fn embed(&self, slots: &[Complex], scale: f64) -> Vec<i64> {
        let n = self.ctx.n();
        let m = n / 2;
        assert_eq!(slots.len(), m, "expected {m} slots");
        let two_n = 2 * n;
        let mut coeffs = vec![0i64; n];
        for (k, c) in coeffs.iter_mut().enumerate() {
            // c_k = (Δ/M)·Re(Σ_j z_j·conj(ζ^{5^j·k}))
            let mut acc = Complex::ZERO;
            for (j, &z) in slots.iter().enumerate() {
                let e = (self.rot_group[j] * k) % two_n;
                acc += z * self.zeta_pows[e].conj();
            }
            let v = (scale / m as f64) * acc.re;
            assert!(
                v.abs() < 4.6e18,
                "encoded coefficient overflows: message too large for scale"
            );
            *c = v.round() as i64;
        }
        coeffs
    }

    /// Decodes a plaintext back to its slot vector.
    pub fn decode(&self, pt: &Plaintext) -> Vec<Complex> {
        let mut poly = pt.poly().clone();
        poly.to_coeff();
        let crt = self.ctx.crt(pt.level());
        let n = self.ctx.n();
        let coeffs: Vec<f64> = (0..n)
            .map(|k| {
                let residues: Vec<u64> = (0..pt.level()).map(|i| poly.limb(i).data()[k]).collect();
                crt.reconstruct_centered_f64(&residues)
            })
            .collect();
        self.unembed(&coeffs, pt.scale())
    }

    /// The raw inverse embedding: real coefficients → slots.
    pub fn unembed(&self, coeffs: &[f64], scale: f64) -> Vec<Complex> {
        let n = self.ctx.n();
        let m = n / 2;
        assert_eq!(coeffs.len(), n, "expected {n} coefficients");
        let two_n = 2 * n;
        (0..m)
            .map(|j| {
                let mut acc = Complex::ZERO;
                for (k, &c) in coeffs.iter().enumerate() {
                    let e = (self.rot_group[j] * k) % two_n;
                    acc += self.zeta_pows[e].scale(c);
                }
                acc.scale(1.0 / scale)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_error;
    use crate::params::CkksParams;

    fn setup() -> CkksContext {
        CkksContext::new(CkksParams::test_small())
    }

    fn ramp(m: usize) -> Vec<Complex> {
        (0..m)
            .map(|i| Complex::new((i as f64) * 0.01 - 2.0, (i as f64) * -0.003 + 1.0))
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = setup();
        let enc = Encoder::new(&ctx);
        let msg = ramp(ctx.slots());
        let pt = enc.encode(&msg, ctx.max_level());
        let out = enc.decode(&pt);
        assert!(max_error(&msg, &out) < 1e-7, "quantization error only");
    }

    #[test]
    fn encode_is_linear() {
        let ctx = setup();
        let enc = Encoder::new(&ctx);
        let m = ctx.slots();
        let a = ramp(m);
        let b: Vec<Complex> = (0..m)
            .map(|i| Complex::new(0.5, i as f64 * 0.001))
            .collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let mut pa = enc.encode(&a, ctx.max_level());
        let pb = enc.encode(&b, ctx.max_level());
        pa.poly_mut().add_assign(pb.poly());
        let out = enc.decode(&pa);
        assert!(max_error(&sum, &out) < 1e-6);
    }

    #[test]
    fn rotation_galois_shifts_slots() {
        let ctx = setup();
        let enc = Encoder::new(&ctx);
        let m = ctx.slots();
        let msg = ramp(m);
        let pt = enc.encode(&msg, ctx.max_level());
        // Apply the automorphism for rotation by 3 directly to the plaintext.
        let g = enc.galois_for_rotation(3);
        let rotated = Plaintext::new(pt.poly().automorphism(g), pt.scale(), pt.level());
        let out = enc.decode(&rotated);
        let want: Vec<Complex> = (0..m).map(|j| msg[(j + 3) % m]).collect();
        assert!(max_error(&want, &out) < 1e-6, "X→X^{{5^3}} must be slot ≪3");
    }

    #[test]
    fn conjugation_galois_conjugates_slots() {
        let ctx = setup();
        let enc = Encoder::new(&ctx);
        let msg = ramp(ctx.slots());
        let pt = enc.encode(&msg, ctx.max_level());
        let g = enc.galois_for_conjugation();
        let conj = Plaintext::new(pt.poly().automorphism(g), pt.scale(), pt.level());
        let out = enc.decode(&conj);
        let want: Vec<Complex> = msg.iter().map(|z| z.conj()).collect();
        assert!(max_error(&want, &out) < 1e-6);
    }

    #[test]
    fn negative_rotation_wraps() {
        let ctx = setup();
        let enc = Encoder::new(&ctx);
        let m = ctx.slots() as isize;
        assert_eq!(enc.galois_for_rotation(-1), enc.galois_for_rotation(m - 1));
    }

    #[test]
    fn embed_unembed_inverse() {
        let ctx = setup();
        let enc = Encoder::new(&ctx);
        let msg = ramp(ctx.slots());
        let coeffs = enc.embed(&msg, 2f64.powi(40));
        let back = enc.unembed(
            &coeffs.iter().map(|&c| c as f64).collect::<Vec<_>>(),
            2f64.powi(40),
        );
        assert!(max_error(&msg, &back) < 1e-7);
    }
}
