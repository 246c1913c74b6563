//! Negacyclic number-theoretic transform (NTT) over `Z_q[X]/(X^N + 1)`.
//!
//! The forward transform uses Cooley–Tukey butterflies with twiddle factors
//! stored in bit-reversed order (the classic Harvey/SEAL layout); the inverse
//! replays the forward stages backwards with inverted twiddles, so the pair
//! is an exact inverse by construction. All twiddle multiplications use
//! Shoup's precomputed-quotient trick to avoid 128-bit division in the hot
//! loop.
//!
//! # Lazy reduction
//!
//! Both transforms follow Harvey ("Faster arithmetic for number-theoretic
//! transforms", 2014): a butterfly does not reduce its outputs into
//! `[0, q)`, it only keeps them inside a fixed range, and the transform
//! reduces once at the end. Inputs are in `[0, q)` and outputs are the same
//! canonical `[0, q)` residues a fully reducing transform produces.
//!
//! - Forward (Cooley–Tukey): every stage takes values in `[0, 4q)` and
//!   returns values in `[0, 4q)`. The butterfly folds `x` into `[0, 2q)`,
//!   forms `v = w·y` lazily in `[0, 2q)` (for any `y`), and writes `x + v`
//!   and `x − v + 2q`. The last stage also maps its outputs to `[0, q)`.
//! - Inverse (Gentleman–Sande): every stage takes and returns `[0, 2q)`.
//!   The butterfly writes `x + y` folded into `[0, 2q)` and the lazy product
//!   `w·(x − y + 2q)`. The last stage multiplies by `n⁻¹` (and `w·n⁻¹`) with
//!   lazy Shoup products and reduces once into `[0, q)`.
//!
//! Every intermediate value stays below `4q`, which must fit a `u64`, so
//! [`Modulus::new`] rejects `q ≥ 2^62`. The stage loops walk
//! `chunks_exact_mut(2t)` / `split_at_mut(t)` zipped with the stage's twiddle
//! slice, so the butterflies have no bounds checks, and every conditional
//! subtraction is a `min` that compiles to a select.
//!
//! Besides the transforms, the context exposes the *evaluation-domain Galois
//! permutation* used by HROT: applying the automorphism `X ↦ X^g` in the
//! evaluation domain is a pure slot permutation, which this module derives
//! from first principles (by transforming the monomial `X` and reading off
//! which power of ψ each output slot evaluates at).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::modulus::{sub_if_ge, Modulus};

/// Per-prime NTT context: twiddle tables and Galois permutation support for a
/// fixed ring degree `n` (a power of two) and prime `q ≡ 1 (mod 2n)`.
///
/// # Example
///
/// ```
/// use ckks_math::{Modulus, NttContext};
/// use ckks_math::prime::generate_ntt_primes;
///
/// let n = 64;
/// let q = generate_ntt_primes(40, 1, 2 * n as u64)[0];
/// let ctx = NttContext::new(n as usize, Modulus::new(q));
/// let mut a = vec![1u64; n as usize];
/// let orig = a.clone();
/// ctx.forward(&mut a);
/// ctx.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug)]
pub struct NttContext {
    n: usize,
    log_n: u32,
    modulus: Modulus,
    psi: u64,
    /// `root_powers[i] = ψ^{bitrev(i)}` for `i ∈ [1, n)`, CT layout.
    root_powers: Vec<u64>,
    root_powers_shoup: Vec<u64>,
    /// Inverses of `root_powers`, same indexing.
    inv_root_powers: Vec<u64>,
    inv_root_powers_shoup: Vec<u64>,
    n_inv: u64,
    n_inv_shoup: u64,
    /// `inv_root_powers[1] · n⁻¹`: the last inverse stage's twiddle with the
    /// final scaling folded in.
    inv_last_root: u64,
    inv_last_root_shoup: u64,
    /// Lazily derived: exponent `e_j` such that output slot `j` of the
    /// forward transform holds `a(ψ^{e_j})`, plus the inverse map.
    galois: OnceLock<GaloisTables>,
    /// Memoized per-element permutation tables (HROT applies the same few
    /// Galois elements thousands of times; rebuilding the `Vec<u32>` per
    /// rotation was a measurable hot-path allocation).
    galois_perms: RwLock<HashMap<u64, Arc<GaloisPerm>>>,
}

#[derive(Debug)]
struct GaloisTables {
    /// `exponent[j]` = the (odd) power of ψ evaluated at output slot `j`.
    exponent: Vec<u32>,
    /// `slot_of[e]` = the output slot evaluating ψ^e (only odd `e` occur).
    slot_of: Vec<u32>,
}

/// Precomputed application tables for one Galois element `g`, covering both
/// domains. Built once per `(context, g)` and shared via [`Arc`].
#[derive(Debug)]
struct GaloisPerm {
    /// Evaluation domain: `out[j] = in[eval_src[j]]`.
    eval_src: Vec<u32>,
    /// Coefficient domain: source `i` lands at `coeff_dst[i]`…
    coeff_dst: Vec<u32>,
    /// …negated when the monomial wrapped past `X^n` (`X^n = -1`).
    coeff_neg: Vec<bool>,
}

impl NttContext {
    /// Builds the context, finding a primitive `2n`-th root of unity.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 4, or if `q ≢ 1 (mod 2n)`.
    pub fn new(n: usize, modulus: Modulus) -> Self {
        assert!(
            n >= 4 && n.is_power_of_two(),
            "n must be a power of two >= 4"
        );
        let q = modulus.value();
        assert!(
            (q - 1).is_multiple_of(2 * n as u64),
            "modulus must be 1 mod 2n for the negacyclic NTT"
        );
        let psi = find_primitive_2n_root(&modulus, n as u64);
        let log_n = n.trailing_zeros();

        let mut root_powers = vec![0u64; n];
        root_powers[0] = 1;
        // root_powers[i] = psi^{bitrev_{log_n}(i)}
        let mut psi_pows = vec![0u64; n];
        psi_pows[0] = 1;
        for i in 1..n {
            psi_pows[i] = modulus.mul(psi_pows[i - 1], psi);
        }
        for i in 1..n {
            root_powers[i] = psi_pows[bitrev(i as u32, log_n) as usize];
        }
        let inv_root_powers: Vec<u64> = root_powers.iter().map(|&w| modulus.inv(w)).collect();
        let root_powers_shoup = root_powers.iter().map(|&w| modulus.shoup(w)).collect();
        let inv_root_powers_shoup = inv_root_powers.iter().map(|&w| modulus.shoup(w)).collect();
        let n_inv = modulus.inv(n as u64);
        let n_inv_shoup = modulus.shoup(n_inv);
        let inv_last_root = modulus.mul(inv_root_powers[1], n_inv);
        let inv_last_root_shoup = modulus.shoup(inv_last_root);
        Self {
            n,
            log_n,
            modulus,
            psi,
            root_powers,
            root_powers_shoup,
            inv_root_powers,
            inv_root_powers_shoup,
            n_inv,
            n_inv_shoup,
            inv_last_root,
            inv_last_root_shoup,
            galois: OnceLock::new(),
            galois_perms: RwLock::new(HashMap::new()),
        }
    }

    /// The ring degree `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The prime modulus.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The primitive `2n`-th root of unity in use.
    #[inline]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// In-place forward negacyclic NTT. Inputs must be in `[0, q)`; outputs
    /// are in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let m = &self.modulus;
        let q = m.value();
        let two_q = 2 * q;
        // Cooley–Tukey butterfly on [0, 4q) → [0, 4q).
        let butterfly = |x: u64, y: u64, w: u64, ws: u64| {
            let u = sub_if_ge(x, two_q);
            let v = m.mul_shoup_lazy(y, w, ws);
            (u + v, u + two_q - v)
        };
        let mut t = self.n;
        let mut stage = 1usize;
        while stage < self.n / 2 {
            t >>= 1;
            let w = &self.root_powers[stage..2 * stage];
            let ws = &self.root_powers_shoup[stage..2 * stage];
            for ((block, &w), &ws) in a.chunks_exact_mut(2 * t).zip(w).zip(ws) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    (*x, *y) = butterfly(*x, *y, w, ws);
                }
            }
            stage <<= 1;
        }
        // Last stage (t = 1) with the final reduction into [0, q) fused in.
        let w = &self.root_powers[stage..];
        let ws = &self.root_powers_shoup[stage..];
        for ((pair, &w), &ws) in a.chunks_exact_mut(2).zip(w).zip(ws) {
            let (x, y) = butterfly(pair[0], pair[1], w, ws);
            pair[0] = sub_if_ge(sub_if_ge(x, two_q), q);
            pair[1] = sub_if_ge(sub_if_ge(y, two_q), q);
        }
    }

    /// In-place inverse negacyclic NTT (exact inverse of [`Self::forward`]).
    /// Inputs must be in `[0, q)`; outputs are in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let m = &self.modulus;
        let q = m.value();
        let two_q = 2 * q;
        // Gentleman–Sande butterfly on [0, 2q) → [0, 2q).
        let butterfly = |x: u64, y: u64, w: u64, ws: u64| {
            (
                sub_if_ge(x + y, two_q),
                m.mul_shoup_lazy(x + two_q - y, w, ws),
            )
        };
        // First stage (t = 1): adjacent pairs.
        let mut stage = self.n >> 1;
        let w = &self.inv_root_powers[stage..];
        let ws = &self.inv_root_powers_shoup[stage..];
        for ((pair, &w), &ws) in a.chunks_exact_mut(2).zip(w).zip(ws) {
            (pair[0], pair[1]) = butterfly(pair[0], pair[1], w, ws);
        }
        let mut t = 2usize;
        stage >>= 1;
        while stage > 1 {
            let w = &self.inv_root_powers[stage..2 * stage];
            let ws = &self.inv_root_powers_shoup[stage..2 * stage];
            for ((block, &w), &ws) in a.chunks_exact_mut(2 * t).zip(w).zip(ws) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    (*x, *y) = butterfly(*x, *y, w, ws);
                }
            }
            t <<= 1;
            stage >>= 1;
        }
        // Last stage: a single block whose outputs also take the n⁻¹ factor.
        let (lo, hi) = a.split_at_mut(t);
        let (w, ws) = (self.inv_last_root, self.inv_last_root_shoup);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            let (u, v) = (*x, *y);
            *x = sub_if_ge(m.mul_shoup_lazy(u + v, self.n_inv, self.n_inv_shoup), q);
            *y = sub_if_ge(m.mul_shoup_lazy(u + two_q - v, w, ws), q);
        }
    }

    /// The fully reducing Cooley–Tukey transform the lazy kernel replaced:
    /// every butterfly reduces into `[0, q)`, and twiddle products use the
    /// Barrett [`Modulus::mul`], so it shares no reduction code with
    /// [`Self::forward`]. Test oracle only.
    #[cfg(test)]
    pub(crate) fn forward_reference(&self, a: &mut [u64]) {
        let m = &self.modulus;
        let mut t = self.n;
        let mut stage = 1usize;
        while stage < self.n {
            t >>= 1;
            for i in 0..stage {
                let w = self.root_powers[stage + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = m.mul(a[j + t], w);
                    a[j] = m.add(u, v);
                    a[j + t] = m.sub(u, v);
                }
            }
            stage <<= 1;
        }
    }

    /// The fully reducing Gentleman–Sande counterpart of
    /// [`Self::forward_reference`]. Test oracle only.
    #[cfg(test)]
    pub(crate) fn inverse_reference(&self, a: &mut [u64]) {
        let m = &self.modulus;
        let mut t = 1usize;
        let mut stage = self.n >> 1;
        while stage >= 1 {
            for i in 0..stage {
                let w = self.inv_root_powers[stage + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = m.add(u, v);
                    a[j + t] = m.mul(m.sub(u, v), w);
                }
            }
            t <<= 1;
            stage >>= 1;
        }
        for x in a.iter_mut() {
            *x = m.mul(*x, self.n_inv);
        }
    }

    fn galois_tables(&self) -> &GaloisTables {
        self.galois.get_or_init(|| {
            // Transform the monomial X: output slot j then holds ψ^{e_j}.
            let mut x = vec![0u64; self.n];
            x[1] = 1;
            self.forward(&mut x);
            // Map each ψ power value back to its exponent.
            let mut value_to_exp = HashMap::with_capacity(2 * self.n);
            let mut p = 1u64;
            for e in 0..(2 * self.n as u32) {
                value_to_exp.insert(p, e);
                p = self.modulus.mul(p, self.psi);
            }
            let mut exponent = vec![0u32; self.n];
            let mut slot_of = vec![u32::MAX; 2 * self.n];
            for (j, v) in x.iter().enumerate() {
                let e = *value_to_exp
                    .get(v)
                    .expect("NTT output of X must be a power of psi");
                exponent[j] = e;
                slot_of[e as usize] = j as u32;
            }
            GaloisTables { exponent, slot_of }
        })
    }

    /// The memoized application tables for `g` (normalized mod `2n`).
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (such maps are not ring automorphisms here).
    fn galois_perm(&self, g: u64) -> Arc<GaloisPerm> {
        assert!(g % 2 == 1, "galois element must be odd");
        let two_n = 2 * self.n as u64;
        let g = g % two_n;
        if let Some(perm) = self.galois_perms.read().expect("galois cache").get(&g) {
            return perm.clone();
        }
        // Build outside the write lock; a racing builder just wins the
        // insert and both end up sharing one Arc.
        let tables = self.galois_tables();
        let eval_src = (0..self.n)
            .map(|j| {
                let e = tables.exponent[j] as u64;
                let src_e = (e * g) % two_n;
                tables.slot_of[src_e as usize]
            })
            .collect();
        let mut coeff_dst = vec![0u32; self.n];
        let mut coeff_neg = vec![false; self.n];
        for i in 0..self.n {
            let e = (i as u64 * g) % two_n;
            if e < self.n as u64 {
                coeff_dst[i] = e as u32;
            } else {
                coeff_dst[i] = (e - self.n as u64) as u32;
                coeff_neg[i] = true;
            }
        }
        let built = Arc::new(GaloisPerm {
            eval_src,
            coeff_dst,
            coeff_neg,
        });
        let mut cache = self.galois_perms.write().expect("galois cache");
        cache.entry(g).or_insert(built).clone()
    }

    /// Returns the evaluation-domain permutation for the automorphism
    /// `X ↦ X^g` (`g` odd): `out[j] = in[perm[j]]`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (such maps are not ring automorphisms here).
    pub fn galois_permutation(&self, g: u64) -> Vec<u32> {
        self.galois_perm(g).eval_src.clone()
    }

    /// Applies the automorphism `X ↦ X^g` to a coefficient-domain vector.
    ///
    /// Coefficient `i` moves to position `i*g mod 2n`, negated when the
    /// destination wraps past `n` (since `X^n = -1`).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` or `g` is even.
    pub fn galois_coeff(&self, a: &[u64], g: u64) -> Vec<u64> {
        let mut out = vec![0u64; self.n];
        self.galois_coeff_into(a, g, &mut out);
        out
    }

    /// [`Self::galois_coeff`] writing into a caller-provided buffer (every
    /// position of `out` is overwritten; the map is a bijection).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`, `out.len() != n`, or `g` is even.
    pub fn galois_coeff_into(&self, a: &[u64], g: u64, out: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        let perm = self.galois_perm(g);
        for (i, &c) in a.iter().enumerate() {
            let dst = perm.coeff_dst[i] as usize;
            out[dst] = if perm.coeff_neg[i] {
                self.modulus.neg(c)
            } else {
                c
            };
        }
    }

    /// Applies the automorphism `X ↦ X^g` in the evaluation domain via the
    /// slot permutation from [`Self::galois_permutation`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` or `g` is even.
    pub fn galois_eval(&self, a: &[u64], g: u64) -> Vec<u64> {
        let mut out = vec![0u64; self.n];
        self.galois_eval_into(a, g, &mut out);
        out
    }

    /// [`Self::galois_eval`] writing into a caller-provided buffer (every
    /// position of `out` is overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`, `out.len() != n`, or `g` is even.
    pub fn galois_eval_into(&self, a: &[u64], g: u64, out: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        let perm = self.galois_perm(g);
        for (dst, &src) in out.iter_mut().zip(&perm.eval_src) {
            *dst = a[src as usize];
        }
    }

    /// log2 of the ring degree.
    #[inline]
    pub fn log_n(&self) -> u32 {
        self.log_n
    }
}

/// Bit-reverses the low `bits` bits of `x`.
#[inline]
pub fn bitrev(x: u32, bits: u32) -> u32 {
    if bits == 0 {
        0
    } else {
        x.reverse_bits() >> (32 - bits)
    }
}

fn find_primitive_2n_root(m: &Modulus, n: u64) -> u64 {
    let q = m.value();
    let exp = (q - 1) / (2 * n);
    // Deterministic scan: psi = c^exp has order dividing 2n; order is exactly
    // 2n iff psi^n = -1.
    for c in 2..q {
        let psi = m.pow(c, exp);
        if m.pow(psi, n) == q - 1 {
            return psi;
        }
    }
    unreachable!("a primitive root always exists for prime q ≡ 1 mod 2n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;
    use proptest::prelude::*;

    /// The 28-bit prime of the PIM functional model (`≡ 1 mod 2^16`).
    const PIM_PRIME: u64 = 268369921;

    fn ctx(n: usize, bits: u32) -> NttContext {
        let q = generate_ntt_primes(bits, 1, 2 * n as u64)[0];
        NttContext::new(n, Modulus::new(q))
    }

    fn negacyclic_convolution(ctx: &NttContext, a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = ctx.n();
        let m = ctx.modulus();
        let mut out = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let p = m.mul(ai, bj);
                let k = i + j;
                if k < n {
                    out[k] = m.add(out[k], p);
                } else {
                    out[k - n] = m.sub(out[k - n], p);
                }
            }
        }
        out
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [8usize, 64, 256] {
            let ctx = ctx(n, 50);
            let mut a: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
            let orig = a.clone();
            ctx.forward(&mut a);
            assert_ne!(a, orig, "transform must change the data");
            ctx.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn pointwise_mul_is_negacyclic_convolution() {
        let n = 32;
        let ctx = ctx(n, 40);
        let m = ctx.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 1) % m.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % m.value()).collect();
        let want = negacyclic_convolution(&ctx, &a, &b);

        let mut fa = a.clone();
        let mut fb = b.clone();
        ctx.forward(&mut fa);
        ctx.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        ctx.inverse(&mut fc);
        assert_eq!(fc, want);
    }

    #[test]
    fn x_to_the_n_is_minus_one() {
        // Multiplying X^(n-1) by X must produce -1 (negacyclic wrap).
        let n = 16;
        let ctx = ctx(n, 40);
        let m = ctx.modulus();
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        ctx.forward(&mut a);
        ctx.forward(&mut b);
        let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
        ctx.inverse(&mut c);
        assert_eq!(c[0], m.value() - 1);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn galois_eval_matches_coeff_path() {
        let n = 64;
        let ctx = ctx(n, 40);
        let a: Vec<u64> = (0..n as u64).map(|i| i * 13 + 1).collect();
        for g in [3u64, 5, 2 * n as u64 - 1, 9, 65] {
            // Reference: coefficient-domain automorphism then NTT.
            let mut want = ctx.galois_coeff(&a, g);
            ctx.forward(&mut want);
            // Eval-domain permutation path.
            let mut fa = a.clone();
            ctx.forward(&mut fa);
            let got = ctx.galois_eval(&fa, g);
            assert_eq!(got, want, "galois element {g}");
        }
    }

    #[test]
    fn galois_composition() {
        // φ_g ∘ φ_h = φ_{gh}.
        let n = 32;
        let ctx = ctx(n, 40);
        let a: Vec<u64> = (0..n as u64).map(|i| i + 2).collect();
        let g = 5u64;
        let h = 9u64;
        let gh = (g * h) % (2 * n as u64);
        let step = ctx.galois_coeff(&ctx.galois_coeff(&a, h), g);
        let direct = ctx.galois_coeff(&a, gh);
        assert_eq!(step, direct);
    }

    #[test]
    fn bitrev_basics() {
        assert_eq!(bitrev(0b001, 3), 0b100);
        assert_eq!(bitrev(0b110, 3), 0b011);
        assert_eq!(bitrev(1, 1), 1);
        assert_eq!(bitrev(0, 0), 0);
    }

    #[test]
    fn psi_has_order_2n() {
        let n = 128;
        let ctx = ctx(n, 45);
        let m = ctx.modulus();
        assert_eq!(m.pow(ctx.psi(), n as u64), m.value() - 1);
        assert_eq!(m.pow(ctx.psi(), 2 * n as u64), 1);
    }

    /// A context at the widest prime `generate_ntt_primes` accepts (62 bits,
    /// where the `[0, 4q)` headroom is tightest) or at the PIM prime.
    fn lazy_ctx(log_n: u32, wide: bool) -> NttContext {
        let n = 1usize << log_n;
        let q = if wide {
            generate_ntt_primes(62, 1, 2 * n as u64)[0]
        } else {
            PIM_PRIME
        };
        NttContext::new(n, Modulus::new(q))
    }

    fn pseudo_random(seed: u64, n: usize, q: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state % q
            })
            .collect()
    }

    /// Checks both lazy kernels against the fully reducing references on
    /// one input, and that the round trip restores it.
    fn assert_matches_reference(ctx: &NttContext, input: &[u64]) {
        let mut got = input.to_vec();
        let mut want = input.to_vec();
        ctx.forward(&mut got);
        ctx.forward_reference(&mut want);
        assert_eq!(got, want, "forward, n={} q={}", ctx.n(), ctx.modulus());
        ctx.inverse(&mut got);
        assert_eq!(got, input, "round trip, n={}", ctx.n());
        let mut got = input.to_vec();
        let mut want = input.to_vec();
        ctx.inverse(&mut got);
        ctx.inverse_reference(&mut want);
        assert_eq!(got, want, "inverse, n={} q={}", ctx.n(), ctx.modulus());
    }

    #[test]
    fn lazy_kernels_match_reference_on_saturated_inputs() {
        for log_n in 2..=12 {
            for wide in [true, false] {
                let ctx = lazy_ctx(log_n, wide);
                let q = ctx.modulus().value();
                assert_matches_reference(&ctx, &vec![q - 1; ctx.n()]);
                assert_matches_reference(&ctx, &pseudo_random(log_n as u64, ctx.n(), q));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn lazy_kernels_match_reference(
            log_n in 2u32..=12,
            wide in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let ctx = lazy_ctx(log_n, wide);
            assert_matches_reference(&ctx, &pseudo_random(seed, ctx.n(), ctx.modulus().value()));
        }
    }

    #[test]
    fn log_n_accessor_consistent() {
        let ctx = ctx(64, 40);
        assert_eq!(1usize << ctx.log_n(), ctx.n());
    }
}
