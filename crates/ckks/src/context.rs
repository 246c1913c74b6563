//! The CKKS context: prime chain, NTT tables, and the precomputations for
//! key switching (digit decomposition, ModUp converters, ModDown, gadget
//! vectors).
//!
//! Terminology: the *level* of a ciphertext is the number of active `Q`
//! primes; a fresh ciphertext sits at `max_level() = levels + 1`, and each
//! rescale removes the last prime of the chain.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use ckks_math::modulus::Modulus;
use ckks_math::ntt::NttContext;
use ckks_math::poly::{Format, Limb, Poly};
use ckks_math::prime::{generate_ntt_primes, generate_primes_near};
use ckks_math::rns::{BasisConverter, CrtReconstructor, ModDown, UBig};

use crate::params::CkksParams;

/// Shared CKKS context. Cheap to clone via [`Arc`]; all precomputation caches
/// are lazily filled and thread-safe.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    /// The `Q` chain: `q_0` (base) followed by `levels` rescale primes.
    q_ctxs: Vec<Arc<NttContext>>,
    /// The auxiliary `P` primes.
    p_ctxs: Vec<Arc<NttContext>>,
    /// Gadget residues `g_j = P·Q̂_j·[Q̂_j^{-1}]_{Q_j}` per digit, per prime of
    /// the full `Q‖P` basis.
    gadget: Vec<Vec<u64>>,
    mod_up_cache: Mutex<HashMap<(usize, usize), Arc<BasisConverter>>>,
    mod_down_cache: Mutex<HashMap<usize, Arc<ModDown>>>,
    crt_cache: Mutex<HashMap<usize, Arc<CrtReconstructor>>>,
}

impl CkksContext {
    /// Instantiates NTT tables and key-switching precomputations for the
    /// given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`CkksParams::validate`]) or
    /// if prime generation fails (requesting more primes of a size than
    /// exist for the ring degree).
    pub fn new(params: CkksParams) -> Self {
        params.validate();
        let n = params.n();
        let two_n = 2 * n as u64;

        // Base prime and P primes; when they share a bit size, draw them from
        // a single descending scan so they never collide.
        let (q0, p_primes) = if params.q0_bits == params.p_bits {
            let mut ps = generate_ntt_primes(params.q0_bits, params.alpha + 1, two_n);
            let q0 = ps.remove(0);
            (q0, ps)
        } else {
            (
                generate_ntt_primes(params.q0_bits, 1, two_n)[0],
                generate_ntt_primes(params.p_bits, params.alpha, two_n),
            )
        };
        // Rescale primes near Δ, excluding anything already taken.
        let mut exclude = vec![q0];
        exclude.extend_from_slice(&p_primes);
        let scale_primes =
            generate_primes_near(1u64 << params.scale_bits, params.levels, two_n, &exclude);

        let make = |q: u64| Arc::new(NttContext::new(n, Modulus::new(q)));
        let mut q_ctxs = Vec::with_capacity(params.q_count());
        q_ctxs.push(make(q0));
        q_ctxs.extend(scale_primes.into_iter().map(make));
        let p_ctxs: Vec<_> = p_primes.into_iter().map(make).collect();

        let gadget = compute_gadget(&params, &q_ctxs, &p_ctxs);

        Self {
            params,
            q_ctxs,
            p_ctxs,
            gadget,
            mod_up_cache: Mutex::new(HashMap::new()),
            mod_down_cache: Mutex::new(HashMap::new()),
            crt_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.params.n()
    }

    /// Number of message slots `N/2`.
    pub fn slots(&self) -> usize {
        self.params.slots()
    }

    /// The level of a fresh ciphertext (total number of `Q` primes).
    pub fn max_level(&self) -> usize {
        self.params.q_count()
    }

    /// `Q`-prime contexts for the first `level` primes.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds [`Self::max_level`].
    pub fn basis_q(&self, level: usize) -> &[Arc<NttContext>] {
        assert!(level >= 1 && level <= self.max_level(), "invalid level");
        &self.q_ctxs[..level]
    }

    /// The auxiliary `P`-prime contexts.
    pub fn basis_p(&self) -> &[Arc<NttContext>] {
        &self.p_ctxs
    }

    /// The extended basis `Q_level ‖ P`.
    pub fn basis_qp(&self, level: usize) -> Vec<Arc<NttContext>> {
        let mut b = self.basis_q(level).to_vec();
        b.extend(self.p_ctxs.iter().cloned());
        b
    }

    /// The full basis `Q_full ‖ P` used by keys.
    pub fn basis_full(&self) -> Vec<Arc<NttContext>> {
        self.basis_qp(self.max_level())
    }

    /// The product of the auxiliary primes, `P`.
    pub fn p_product(&self) -> UBig {
        let mut p = UBig::from_u64(1);
        for c in &self.p_ctxs {
            p = p.mul_small(c.modulus().value());
        }
        p
    }

    /// Number of key-switching digits at a given level:
    /// `⌈level / α⌉` (digits are fixed by the full-level grouping; trailing
    /// digits may be partially active).
    pub fn num_digits(&self, level: usize) -> usize {
        level.div_ceil(self.params.alpha)
    }

    /// The decomposition number `D` at full level.
    pub fn decomposition_number(&self) -> usize {
        self.num_digits(self.max_level())
    }

    /// The range of `Q`-prime indices covered by digit `j` at `level`.
    pub fn digit_range(&self, level: usize, j: usize) -> Range<usize> {
        let a = self.params.alpha;
        let start = j * a;
        let end = ((j + 1) * a).min(level);
        assert!(start < level, "digit {j} inactive at level {level}");
        start..end
    }

    /// Gadget residue `g_j mod prime`, where `prime_idx` indexes the full
    /// `Q‖P` basis (`0..q_count` are `Q` primes, then `P` primes).
    pub fn gadget_residue(&self, digit: usize, prime_idx: usize) -> u64 {
        self.gadget[digit][prime_idx]
    }

    /// ModUp of one decomposition digit at `level`: `coeff` and `eval` are
    /// the same polynomial over `Q_level` in the coefficient and the
    /// evaluation domain. Returns the digit over the full active
    /// `Q_level ‖ P` basis in the evaluation domain.
    ///
    /// The digit's own residues are copied from `eval`; the rest are
    /// produced by approximate basis conversion of `coeff`'s digit limbs
    /// (§II-B BConv), and only those converted limbs are forward
    /// transformed.
    ///
    /// # Panics
    ///
    /// Panics if either polynomial is in the wrong domain or has other than
    /// `level` limbs.
    pub fn mod_up(&self, level: usize, digit: usize, coeff: &Poly, eval: &Poly) -> Poly {
        assert_eq!(
            coeff.format(),
            Format::Coeff,
            "expected a Coeff digit source"
        );
        assert_eq!(eval.format(), Format::Eval, "expected an Eval pass-through");
        assert_eq!(coeff.num_limbs(), level, "limb count must equal level");
        assert_eq!(eval.num_limbs(), level, "limb count must equal level");
        let range = self.digit_range(level, digit);
        let digit_limbs: Vec<&[u64]> = range.clone().map(|i| coeff.limb(i).data()).collect();
        let conv = self.mod_up_converter(level, digit);
        let mut converted = Poly::from_limbs(conv.convert_approx(&digit_limbs), Format::Coeff);
        converted.to_eval();
        // Assemble: active Q primes in order, then P primes.
        let mut converted = converted.into_limbs().into_iter();
        let mut limbs: Vec<Limb> = Vec::with_capacity(level + self.params.alpha);
        for i in 0..level {
            limbs.push(if range.contains(&i) {
                eval.limb(i).clone()
            } else {
                converted.next().expect("converter output exhausted")
            });
        }
        limbs.extend(converted);
        assert_eq!(limbs.len(), level + self.params.alpha);
        Poly::from_limbs(limbs, Format::Eval)
    }

    fn mod_up_converter(&self, level: usize, digit: usize) -> Arc<BasisConverter> {
        let key = (level, digit);
        let mut cache = self.mod_up_cache.lock().expect("poisoned");
        cache
            .entry(key)
            .or_insert_with(|| {
                let range = self.digit_range(level, digit);
                let from: Vec<_> = self.q_ctxs[range.clone()].to_vec();
                let mut to: Vec<_> = Vec::new();
                for (i, c) in self.q_ctxs[..level].iter().enumerate() {
                    if !range.contains(&i) {
                        to.push(c.clone());
                    }
                }
                to.extend(self.p_ctxs.iter().cloned());
                Arc::new(BasisConverter::new(&from, &to))
            })
            .clone()
    }

    /// The ModDown precomputation for a level.
    pub fn mod_down(&self, level: usize) -> Arc<ModDown> {
        let mut cache = self.mod_down_cache.lock().expect("poisoned");
        cache
            .entry(level)
            .or_insert_with(|| Arc::new(ModDown::new(self.basis_q(level), &self.p_ctxs)))
            .clone()
    }

    /// CRT reconstructor over the first `level` `Q` primes (for decoding).
    pub fn crt(&self, level: usize) -> Arc<CrtReconstructor> {
        let mut cache = self.crt_cache.lock().expect("poisoned");
        cache
            .entry(level)
            .or_insert_with(|| Arc::new(CrtReconstructor::new(self.basis_q(level))))
            .clone()
    }

    /// Extracts the prefix of a full-basis key polynomial matching the active
    /// level: limbs `[0, level) ∪ P`-limbs, preserving the domain. A test
    /// oracle for KeyMult, which reads these limbs in place.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is not over the full basis.
    #[cfg(test)]
    pub(crate) fn key_prefix(&self, poly: &Poly, level: usize) -> Poly {
        let full = self.max_level() + self.params.alpha;
        assert_eq!(poly.num_limbs(), full, "expected a full-basis polynomial");
        let mut limbs = Vec::with_capacity(level + self.params.alpha);
        for i in 0..level {
            limbs.push(poly.limb(i).clone());
        }
        for i in 0..self.params.alpha {
            limbs.push(poly.limb(self.max_level() + i).clone());
        }
        Poly::from_limbs(limbs, poly.format())
    }
}

/// Computes the gadget residues `g_j = P·Q̂_j·t_j` with
/// `t_j = [Q̂_j^{-1}]_{Q_j}`, for every digit `j` of the full-level
/// decomposition and every prime of the `Q‖P` basis.
fn compute_gadget(
    params: &CkksParams,
    q_ctxs: &[Arc<NttContext>],
    p_ctxs: &[Arc<NttContext>],
) -> Vec<Vec<u64>> {
    let q_count = q_ctxs.len();
    let alpha = params.alpha;
    let num_digits = q_count.div_ceil(alpha);
    let mut p = UBig::from_u64(1);
    for c in p_ctxs {
        p = p.mul_small(c.modulus().value());
    }
    let all: Vec<&Arc<NttContext>> = q_ctxs.iter().chain(p_ctxs.iter()).collect();
    (0..num_digits)
        .map(|j| {
            let digit = j * alpha..((j + 1) * alpha).min(q_count);
            // Q̂_j = product of Q primes outside the digit.
            let mut q_hat = UBig::from_u64(1);
            for (i, c) in q_ctxs.iter().enumerate() {
                if !digit.contains(&i) {
                    q_hat = q_hat.mul_small(c.modulus().value());
                }
            }
            // t_j = Q̂_j^{-1} mod Q_j via CRT over the digit primes.
            // Build t_j as an integer: t_j = Σ_i [Q̂_j^{-1}]_{q_i}·(Q_j/q_i)·
            //                                 [(Q_j/q_i)^{-1}]_{q_i}  (mod Q_j)
            let digit_ctxs: Vec<&Arc<NttContext>> = digit.clone().map(|i| &q_ctxs[i]).collect();
            let mut q_j = UBig::from_u64(1);
            for c in &digit_ctxs {
                q_j = q_j.mul_small(c.modulus().value());
            }
            let mut t = UBig::zero();
            for (idx, c) in digit_ctxs.iter().enumerate() {
                let m = c.modulus();
                // residue of Q̂_j^{-1} at this digit prime
                let r = m.inv(q_hat.mod_small(m.value()));
                // CRT basis element for the digit
                let mut hat_i = UBig::from_u64(1);
                for (k, c2) in digit_ctxs.iter().enumerate() {
                    if k != idx {
                        hat_i = hat_i.mul_small(c2.modulus().value());
                    }
                }
                let hat_i_inv = m.inv(hat_i.mod_small(m.value()));
                let coeff = m.mul(r, hat_i_inv);
                t.add_assign(&hat_i.mul_small(coeff));
            }
            while t >= q_j {
                t.sub_assign(&q_j);
            }
            // g_j residues: P·Q̂_j·t_j mod each prime in Q‖P.
            all.iter()
                .map(|c| {
                    let m = c.modulus();
                    let a = p.mod_small(m.value());
                    let b = q_hat.mod_small(m.value());
                    let c3 = t.mod_small(m.value());
                    m.mul(m.mul(a, b), c3)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::test_small())
    }

    #[test]
    fn prime_chain_structure() {
        let c = ctx();
        assert_eq!(c.max_level(), 5);
        assert_eq!(c.basis_q(5).len(), 5);
        assert_eq!(c.basis_p().len(), 2);
        assert_eq!(c.basis_qp(3).len(), 5);
        assert_eq!(c.basis_full().len(), 7);
        // All primes distinct and NTT-friendly.
        let mut seen = std::collections::HashSet::new();
        for p in c.basis_full() {
            let q = p.modulus().value();
            assert!(seen.insert(q), "primes must be distinct");
            assert_eq!(q % (2 * c.n() as u64), 1);
        }
    }

    #[test]
    fn digit_structure() {
        let c = ctx(); // q_count = 5, alpha = 2 -> digits {0,1},{2,3},{4}
        assert_eq!(c.decomposition_number(), 3);
        assert_eq!(c.num_digits(5), 3);
        assert_eq!(c.num_digits(4), 2);
        assert_eq!(c.num_digits(1), 1);
        assert_eq!(c.digit_range(5, 0), 0..2);
        assert_eq!(c.digit_range(5, 2), 4..5);
        assert_eq!(c.digit_range(3, 1), 2..3); // partially active digit
    }

    #[test]
    #[should_panic(expected = "inactive at level")]
    fn inactive_digit_rejected() {
        ctx().digit_range(2, 1);
    }

    #[test]
    fn gadget_identity() {
        // Σ_j [c]_{Q_j}·(Q̂_j·t_j) ≡ c (mod Q): check residue-wise with the
        // gadget divided by P.
        let c = ctx();
        let level = c.max_level();
        // pick a test value v, reduce per prime
        let v: i64 = 123_456_789_012_345;
        for (i, qc) in c.basis_q(level).iter().enumerate() {
            let m = qc.modulus();
            // which digit does prime i belong to?
            let alpha = c.params().alpha;
            let d = i / alpha;
            // g_d / P ≡ Q̂_d·t_d ≡ 1 mod q_i; other digits ≡ 0 mod q_i.
            let p_res = {
                let p = c.p_product();
                p.mod_small(m.value())
            };
            let p_inv = m.inv(p_res);
            for j in 0..c.decomposition_number() {
                let g = c.gadget_residue(j, i);
                let ghat = m.mul(g, p_inv); // Q̂_j·t_j mod q_i
                if j == d {
                    assert_eq!(ghat, 1, "digit's own gadget residue must be 1");
                } else {
                    assert_eq!(ghat, 0, "other digits must vanish");
                }
            }
            let _ = v; // value check implied by residue structure
        }
    }

    #[test]
    fn mod_up_value_correct_modulo_digit_product() {
        let c = ctx();
        let level = 4;
        let n = c.n();
        // A small-value polynomial over Q_4; digit 0 is primes 0..2.
        let vals: Vec<i64> = (0..n as i64).map(|i| (i % 97) - 48).collect();
        let coeff = Poly::from_coeff_i64(c.basis_q(level), &vals);
        let mut eval = coeff.duplicate();
        eval.to_eval();
        let mut up = c.mod_up(level, 0, &coeff, &eval);
        up.to_coeff();
        assert_eq!(up.num_limbs(), level + 2);
        // Source-prime residues pass through untouched; the rest equal the
        // value plus u·Q_digit for a small u ∈ [0, #source_limbs].
        let want = Poly::from_coeff_i64(&c.basis_qp(level), &vals);
        let q_digit: u128 = c.basis_q(level)[0].modulus().value() as u128
            * c.basis_q(level)[1].modulus().value() as u128;
        for (idx, (l, w)) in up.limbs().zip(want.limbs()).enumerate() {
            if idx < 2 {
                assert_eq!(l.data(), w.data(), "source residues pass through");
                continue;
            }
            let m = l.ctx().modulus();
            let qd = (q_digit % m.value() as u128) as u64;
            for (&got, &expect) in l.data().iter().zip(w.data()) {
                let diff = m.sub(got, expect);
                let ok = (0..=2u64).any(|u| diff == m.mul(m.reduce(u), qd));
                assert!(ok, "ModUp error must be a small multiple of Q_digit");
            }
        }
    }

    #[test]
    fn key_prefix_extraction() {
        let c = ctx();
        let full = c.basis_full();
        let p = Poly::from_coeff_i64(&full, &vec![7i64; c.n()]);
        let pre = c.key_prefix(&p, 2);
        assert_eq!(pre.num_limbs(), 2 + 2);
        assert_eq!(
            pre.limb(2).ctx().modulus().value(),
            c.basis_p()[0].modulus().value()
        );
    }
}
