//! RNS polynomials in `R_Q = Z_Q[X]/(X^N + 1)`.
//!
//! A [`Poly`] is a list of *limbs*, one per RNS prime: limb `i` holds the
//! polynomial's coefficients reduced modulo `q_i` (§II-A of the paper). With
//! RNS, every polynomial op is limb-wise, which is exactly the property the
//! Anaheim PIM exploits: element-wise ops decompose into `L × N` independent
//! modular ops.
//!
//! The same independence makes limbs the natural unit of host-side
//! parallelism: every op here consults the [`tune`] cost model, which
//! decides per batch whether to run the plain serial loop or to fuse the
//! limbs into a handful of chunked [`parpool`] jobs (see
//! [`tune::decide`]). Chunks are disjoint and iterate in serial order, so
//! results are bit-identical for any thread count and any tuning profile.
//! Limb storage is recycled through the thread-local [`pool`] free-lists,
//! so steady-state evaluation does not allocate.

use std::sync::Arc;

use crate::modulus::Modulus;
use crate::ntt::NttContext;
use crate::pool;
use crate::tune::{self, OpClass};

/// Runs `f(i, &mut items[i])` for every item, fanning out into chunked
/// pool jobs when the [`tune`] cost model predicts a win for this op class
/// and shape. The closure sees disjoint elements and chunk-internal order
/// matches the serial loop, so parallel and serial runs produce identical
/// memory states.
pub(crate) fn for_each_tuned<T, F>(class: OpClass, elems_per_item: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let d = tune::decide(class, items.len(), elems_per_item);
    if d.parallel() {
        parpool::par_for_each_mut_chunked(items, d.jobs, f);
    } else {
        for (i, x) in items.iter_mut().enumerate() {
            f(i, x);
        }
    }
}

/// Maps `f(i, &items[i])` over every item in order, fanning out into
/// chunked pool jobs when the [`tune`] cost model predicts a win. Output
/// order always matches input order.
pub(crate) fn map_tuned<T, U, F>(class: OpClass, elems_per_item: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let d = tune::decide(class, items.len(), elems_per_item);
    if d.parallel() {
        parpool::par_map_chunked(items, d.jobs, f)
    } else {
        items.iter().enumerate().map(|(i, x)| f(i, x)).collect()
    }
}

/// Whether coefficients are stored in the coefficient (power basis) or
/// evaluation (NTT) domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Power-basis coefficients; required for BConv and rescaling.
    Coeff,
    /// NTT point values; required for polynomial multiplication.
    Eval,
}

/// One RNS limb: `n` residues modulo a single prime.
///
/// Limb storage comes from (and returns to) the thread-local buffer
/// [`pool`]: `Clone` copies into a recycled buffer and `Drop` hands the
/// buffer back instead of freeing it.
#[derive(Debug)]
pub struct Limb {
    ctx: Arc<NttContext>,
    data: Vec<u64>,
}

impl Clone for Limb {
    fn clone(&self) -> Self {
        let mut data = pool::take(self.data.len());
        data.copy_from_slice(&self.data);
        Self {
            ctx: Arc::clone(&self.ctx),
            data,
        }
    }
}

impl Drop for Limb {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.data));
    }
}

impl Limb {
    /// Creates a zero limb for the given prime context.
    pub fn zero(ctx: Arc<NttContext>) -> Self {
        let n = ctx.n();
        Self {
            ctx,
            data: pool::take_zeroed(n),
        }
    }

    /// Creates a limb from raw residues (must already be reduced).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != ctx.n()` or any value is out of range.
    pub fn from_data(ctx: Arc<NttContext>, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), ctx.n(), "limb length mismatch");
        debug_assert!(data.iter().all(|&x| x < ctx.modulus().value()));
        Self { ctx, data }
    }

    /// Creates a limb by copying residues into a pooled buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != ctx.n()`.
    pub fn from_slice(ctx: Arc<NttContext>, data: &[u64]) -> Self {
        assert_eq!(data.len(), ctx.n(), "limb length mismatch");
        debug_assert!(data.iter().all(|&x| x < ctx.modulus().value()));
        let mut buf = pool::take(data.len());
        buf.copy_from_slice(data);
        Self { ctx, data: buf }
    }

    /// The prime context of this limb.
    #[inline]
    pub fn ctx(&self) -> &Arc<NttContext> {
        &self.ctx
    }

    /// Residues as a slice.
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Residues as a mutable slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }
}

/// An RNS polynomial: `L` limbs of `N` residues, plus a domain tag.
///
/// # Example
///
/// ```
/// use ckks_math::{Modulus, NttContext, Poly, Format};
/// use ckks_math::prime::generate_ntt_primes;
/// use std::sync::Arc;
///
/// let n = 64;
/// let basis: Vec<_> = generate_ntt_primes(40, 2, 2 * n as u64)
///     .into_iter()
///     .map(|q| Arc::new(NttContext::new(n, Modulus::new(q))))
///     .collect();
/// let mut a = Poly::from_coeff_i64(&basis, &vec![1i64; n]);
/// let b = a.clone();
/// a.add_assign(&b);
/// assert_eq!(a.limb(0).data()[0], 2);
/// ```
#[derive(Debug, Clone)]
pub struct Poly {
    format: Format,
    limbs: Vec<Limb>,
}

impl Poly {
    /// Creates the zero polynomial over `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` is empty or the contexts disagree on `n`.
    pub fn zero(basis: &[Arc<NttContext>], format: Format) -> Self {
        assert!(!basis.is_empty(), "empty RNS basis");
        let n = basis[0].n();
        assert!(basis.iter().all(|c| c.n() == n), "mixed ring degrees");
        Self {
            format,
            limbs: basis.iter().map(|c| Limb::zero(c.clone())).collect(),
        }
    }

    /// Builds a coefficient-domain polynomial from signed coefficients,
    /// reducing each into every limb.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n`.
    pub fn from_coeff_i64(basis: &[Arc<NttContext>], coeffs: &[i64]) -> Self {
        let mut p = Self::zero(basis, Format::Coeff);
        assert_eq!(coeffs.len(), p.n(), "coefficient count mismatch");
        let n = p.n();
        for_each_tuned(OpClass::Elementwise, n, &mut p.limbs, |_, limb| {
            let m = *limb.ctx.modulus();
            for (dst, &c) in limb.data.iter_mut().zip(coeffs) {
                *dst = m.from_i64(c);
            }
        });
        p
    }

    /// Assembles a polynomial from explicit limbs.
    ///
    /// # Panics
    ///
    /// Panics if `limbs` is empty or limb lengths disagree.
    pub fn from_limbs(limbs: Vec<Limb>, format: Format) -> Self {
        assert!(!limbs.is_empty(), "empty limb list");
        let n = limbs[0].data.len();
        assert!(limbs.iter().all(|l| l.data.len() == n), "ragged limbs");
        Self { format, limbs }
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.limbs[0].data.len()
    }

    /// Number of RNS limbs `L`.
    #[inline]
    pub fn num_limbs(&self) -> usize {
        self.limbs.len()
    }

    /// Current domain.
    #[inline]
    pub fn format(&self) -> Format {
        self.format
    }

    /// Limb accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn limb(&self, i: usize) -> &Limb {
        &self.limbs[i]
    }

    /// Mutable limb accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut Limb {
        &mut self.limbs[i]
    }

    /// Iterates over limbs.
    pub fn limbs(&self) -> impl Iterator<Item = &Limb> {
        self.limbs.iter()
    }

    /// All limbs as a mutable slice (for callers that update limbs in
    /// parallel, e.g. rescaling).
    #[inline]
    pub fn limbs_mut(&mut self) -> &mut [Limb] {
        &mut self.limbs
    }

    /// The RNS basis (prime contexts) of this polynomial.
    pub fn basis(&self) -> Vec<Arc<NttContext>> {
        self.limbs.iter().map(|l| l.ctx.clone()).collect()
    }

    fn assert_compatible(&self, other: &Poly) {
        assert_eq!(self.format, other.format, "domain mismatch");
        assert_eq!(self.num_limbs(), other.num_limbs(), "limb count mismatch");
        for (a, b) in self.limbs.iter().zip(&other.limbs) {
            assert_eq!(
                a.ctx.modulus().value(),
                b.ctx.modulus().value(),
                "modulus mismatch"
            );
        }
    }

    /// Out-of-place binary element-wise op into pooled limbs.
    fn zip_map(&self, other: &Poly, f: impl Fn(&Modulus, u64, u64) -> u64 + Sync) -> Poly {
        let limbs = map_tuned(OpClass::Elementwise, self.n(), &self.limbs, |i, a| {
            let m = *a.ctx.modulus();
            let mut data = pool::take(a.data.len());
            for ((d, &x), &y) in data.iter_mut().zip(&a.data).zip(&other.limbs[i].data) {
                *d = f(&m, x, y);
            }
            Limb {
                ctx: Arc::clone(&a.ctx),
                data,
            }
        });
        Poly {
            format: self.format,
            limbs,
        }
    }

    /// Out-of-place unary element-wise op into pooled limbs.
    fn map_unary(&self, f: impl Fn(&Modulus, u64) -> u64 + Sync) -> Poly {
        let limbs = map_tuned(OpClass::Elementwise, self.n(), &self.limbs, |_, a| {
            let m = *a.ctx.modulus();
            let mut data = pool::take(a.data.len());
            for (d, &x) in data.iter_mut().zip(&a.data) {
                *d = f(&m, x);
            }
            Limb {
                ctx: Arc::clone(&a.ctx),
                data,
            }
        });
        Poly {
            format: self.format,
            limbs,
        }
    }

    /// `self + other` into pooled storage (no intermediate clone).
    ///
    /// # Panics
    ///
    /// Panics if domains, limb counts, or moduli differ.
    pub fn added(&self, other: &Poly) -> Poly {
        self.assert_compatible(other);
        self.zip_map(other, |m, x, y| m.add(x, y))
    }

    /// `self - other` into pooled storage.
    ///
    /// # Panics
    ///
    /// Panics if domains, limb counts, or moduli differ.
    pub fn subbed(&self, other: &Poly) -> Poly {
        self.assert_compatible(other);
        self.zip_map(other, |m, x, y| m.sub(x, y))
    }

    /// `-self` into pooled storage.
    pub fn negated(&self) -> Poly {
        self.map_unary(|m, x| m.neg(x))
    }

    /// Hadamard product `self * other` into pooled storage (evaluation
    /// domain only).
    ///
    /// # Panics
    ///
    /// Panics if either operand is in the coefficient domain, or on basis
    /// mismatch.
    pub fn multiplied(&self, other: &Poly) -> Poly {
        assert_eq!(self.format, Format::Eval, "multiplication requires Eval");
        self.assert_compatible(other);
        self.zip_map(other, |m, x, y| m.mul(x, y))
    }

    /// `self * s` into pooled storage.
    pub fn scaled_i64(&self, s: i64) -> Poly {
        let limbs = map_tuned(OpClass::Elementwise, self.n(), &self.limbs, |_, a| {
            let m = *a.ctx.modulus();
            let sv = m.from_i64(s);
            let ss = m.shoup(sv);
            let mut data = pool::take(a.data.len());
            for (d, &x) in data.iter_mut().zip(&a.data) {
                *d = m.mul_shoup(x, sv, ss);
            }
            Limb {
                ctx: Arc::clone(&a.ctx),
                data,
            }
        });
        Poly {
            format: self.format,
            limbs,
        }
    }

    /// Deep copy into pooled storage. Semantically identical to `Clone`,
    /// but named so call sites in allocation-free paths are greppable.
    pub fn duplicate(&self) -> Poly {
        self.map_unary(|_, x| x)
    }

    /// `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if domains, limb counts, or moduli differ.
    pub fn add_assign(&mut self, other: &Poly) {
        self.assert_compatible(other);
        let n = self.n();
        for_each_tuned(OpClass::Elementwise, n, &mut self.limbs, |i, a| {
            let m = *a.ctx.modulus();
            for (x, &y) in a.data.iter_mut().zip(&other.limbs[i].data) {
                *x = m.add(*x, y);
            }
        });
    }

    /// `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if domains, limb counts, or moduli differ.
    pub fn sub_assign(&mut self, other: &Poly) {
        self.assert_compatible(other);
        let n = self.n();
        for_each_tuned(OpClass::Elementwise, n, &mut self.limbs, |i, a| {
            let m = *a.ctx.modulus();
            for (x, &y) in a.data.iter_mut().zip(&other.limbs[i].data) {
                *x = m.sub(*x, y);
            }
        });
    }

    /// `self = -self`.
    pub fn neg_assign(&mut self) {
        let n = self.n();
        for_each_tuned(OpClass::Elementwise, n, &mut self.limbs, |_, a| {
            let m = *a.ctx.modulus();
            for x in &mut a.data {
                *x = m.neg(*x);
            }
        });
    }

    /// Element-wise (Hadamard) product, i.e. ring multiplication when both
    /// operands are in the evaluation domain.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in the coefficient domain, or on
    /// basis mismatch.
    pub fn mul_assign(&mut self, other: &Poly) {
        assert_eq!(self.format, Format::Eval, "multiplication requires Eval");
        self.assert_compatible(other);
        let n = self.n();
        for_each_tuned(OpClass::Elementwise, n, &mut self.limbs, |i, a| {
            let m = *a.ctx.modulus();
            for (x, &y) in a.data.iter_mut().zip(&other.limbs[i].data) {
                *x = m.mul(*x, y);
            }
        });
    }

    /// Fused multiply-accumulate `self += a * b` (evaluation domain).
    ///
    /// `b` may carry more limbs than `self` and `a`; only its leading
    /// `self.num_limbs()` limbs are read. A plaintext over `Q‖P` thus also
    /// serves a `Q` accumulator, because `Q` is a prefix of `Q‖P`.
    ///
    /// # Panics
    ///
    /// Panics if any operand is in the coefficient domain, if `a` and
    /// `self` differ in basis, or if `b`'s leading limbs do not match it.
    pub fn mac_assign(&mut self, a: &Poly, b: &Poly) {
        assert_eq!(self.format, Format::Eval, "MAC requires Eval");
        self.assert_compatible(a);
        assert_eq!(b.format, Format::Eval, "domain mismatch");
        assert!(b.num_limbs() >= self.num_limbs(), "limb count mismatch");
        for (x, y) in self.limbs.iter().zip(&b.limbs) {
            assert_eq!(
                x.ctx.modulus().value(),
                y.ctx.modulus().value(),
                "modulus mismatch"
            );
        }
        let n = self.n();
        for_each_tuned(OpClass::Elementwise, n, &mut self.limbs, |i, dst| {
            let m = *dst.ctx.modulus();
            for ((d, &u), &v) in dst
                .data
                .iter_mut()
                .zip(&a.limbs[i].data)
                .zip(&b.limbs[i].data)
            {
                *d = m.reduce_u128(u as u128 * v as u128 + *d as u128);
            }
        });
    }

    /// Multiplies each limb by a per-limb scalar (already reduced).
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len() != num_limbs()`.
    pub fn mul_scalar_per_limb(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.num_limbs(), "scalar count mismatch");
        let n = self.n();
        for_each_tuned(OpClass::Elementwise, n, &mut self.limbs, |i, a| {
            let m = *a.ctx.modulus();
            let s = m.reduce(scalars[i]);
            let ss = m.shoup(s);
            for x in &mut a.data {
                *x = m.mul_shoup(*x, s, ss);
            }
        });
    }

    /// Multiplies the whole polynomial by a signed integer scalar.
    pub fn mul_scalar_i64(&mut self, s: i64) {
        let n = self.n();
        for_each_tuned(OpClass::Elementwise, n, &mut self.limbs, |_, a| {
            let m = *a.ctx.modulus();
            let sv = m.from_i64(s);
            let ss = m.shoup(sv);
            for x in &mut a.data {
                *x = m.mul_shoup(*x, sv, ss);
            }
        });
    }

    /// Applies the Galois automorphism `X ↦ X^g`, in whichever domain the
    /// polynomial currently is. Uses the memoized permutation tables in
    /// [`NttContext`] and pooled output limbs.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even.
    pub fn automorphism(&self, g: u64) -> Poly {
        let fmt = self.format;
        let limbs = map_tuned(OpClass::Automorphism, self.n(), &self.limbs, |_, l| {
            let mut data = pool::take(l.data.len());
            match fmt {
                Format::Coeff => l.ctx.galois_coeff_into(&l.data, g, &mut data),
                Format::Eval => l.ctx.galois_eval_into(&l.data, g, &mut data),
            }
            Limb {
                ctx: Arc::clone(&l.ctx),
                data,
            }
        });
        Poly { format: fmt, limbs }
    }

    /// Converts to the evaluation domain in place (no-op if already there).
    pub fn to_eval(&mut self) {
        if self.format == Format::Eval {
            return;
        }
        let n = self.n();
        for_each_tuned(OpClass::Ntt, n, &mut self.limbs, |_, l| {
            let ctx = Arc::clone(&l.ctx);
            ctx.forward(&mut l.data);
        });
        self.format = Format::Eval;
    }

    /// Converts to the coefficient domain in place (no-op if already there).
    pub fn to_coeff(&mut self) {
        if self.format == Format::Coeff {
            return;
        }
        let n = self.n();
        for_each_tuned(OpClass::Ntt, n, &mut self.limbs, |_, l| {
            let ctx = Arc::clone(&l.ctx);
            ctx.inverse(&mut l.data);
        });
        self.format = Format::Coeff;
    }

    /// Removes and returns the last limb (used by rescaling / ModDown).
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn pop_limb(&mut self) -> Limb {
        assert!(self.num_limbs() > 1, "cannot drop the last remaining limb");
        self.limbs.pop().expect("non-empty")
    }

    /// Truncates to the first `k` limbs.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > num_limbs()`.
    pub fn truncate_limbs(&mut self, k: usize) {
        assert!(k >= 1 && k <= self.num_limbs(), "invalid limb count");
        self.limbs.truncate(k);
    }

    /// Appends limbs (used when extending to the PQ basis).
    pub fn extend_limbs(&mut self, limbs: Vec<Limb>) {
        let n = self.n();
        assert!(limbs.iter().all(|l| l.data.len() == n), "ragged limbs");
        self.limbs.extend(limbs);
    }

    /// Splits off limbs starting at index `at`, returning the tail.
    ///
    /// # Panics
    ///
    /// Panics if `at == 0` or `at > num_limbs()`.
    pub fn split_off_limbs(&mut self, at: usize) -> Vec<Limb> {
        assert!(at >= 1 && at <= self.num_limbs(), "invalid split point");
        self.limbs.split_off(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::Modulus;
    use crate::prime::generate_ntt_primes;

    fn basis(n: usize, l: usize) -> Vec<Arc<NttContext>> {
        generate_ntt_primes(45, l, 2 * n as u64)
            .into_iter()
            .map(|q| Arc::new(NttContext::new(n, Modulus::new(q))))
            .collect()
    }

    #[test]
    fn add_sub_neg() {
        let b = basis(32, 3);
        let coeffs: Vec<i64> = (0..32).map(|i| i - 16).collect();
        let a = Poly::from_coeff_i64(&b, &coeffs);
        let mut s = a.clone();
        s.add_assign(&a);
        s.sub_assign(&a);
        for (la, ls) in a.limbs().zip(s.limbs()) {
            assert_eq!(la.data(), ls.data());
        }
        let mut neg = a.clone();
        neg.neg_assign();
        neg.add_assign(&a);
        assert!(neg.limbs().all(|l| l.data().iter().all(|&x| x == 0)));
    }

    #[test]
    fn out_of_place_ops_match_assign_variants() {
        let n = 32;
        let b = basis(n, 3);
        let coeffs: Vec<i64> = (0..n as i64).map(|i| i * 7 - 11).collect();
        let other: Vec<i64> = (0..n as i64).map(|i| 3 - i).collect();
        let x = Poly::from_coeff_i64(&b, &coeffs);
        let y = Poly::from_coeff_i64(&b, &other);

        let mut want = x.clone();
        want.add_assign(&y);
        let got = x.added(&y);
        for (l, w) in got.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }

        let mut want = x.clone();
        want.sub_assign(&y);
        let got = x.subbed(&y);
        for (l, w) in got.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }

        let mut want = x.clone();
        want.neg_assign();
        let got = x.negated();
        for (l, w) in got.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }

        let mut want = x.clone();
        want.mul_scalar_i64(-9);
        let got = x.scaled_i64(-9);
        for (l, w) in got.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }

        let mut xe = x.clone();
        let mut ye = y.clone();
        xe.to_eval();
        ye.to_eval();
        let mut want = xe.clone();
        want.mul_assign(&ye);
        let got = xe.multiplied(&ye);
        assert_eq!(got.format(), Format::Eval);
        for (l, w) in got.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }

        let dup = x.duplicate();
        for (l, w) in dup.limbs().zip(x.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    fn pooled_limb_roundtrip() {
        pool::clear();
        let b = basis(16, 2);
        let coeffs: Vec<i64> = (0..16).collect();
        {
            let a = Poly::from_coeff_i64(&b, &coeffs);
            let _copy = a.duplicate();
        }
        // Both polynomials dropped: their limb buffers must now be pooled.
        assert!(pool::pooled_buffers() >= 4);
        let a = Poly::from_coeff_i64(&b, &coeffs);
        let want = Poly::from_coeff_i64(&b, &coeffs);
        for (l, w) in a.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    fn eval_mul_equals_ring_mul() {
        let n = 16;
        let b = basis(n, 2);
        // a = X + 2, c = X - 1  =>  a*c = X^2 + X - 2
        let mut ac = vec![0i64; n];
        ac[0] = 2;
        ac[1] = 1;
        let mut cc = vec![0i64; n];
        cc[0] = -1;
        cc[1] = 1;
        let mut a = Poly::from_coeff_i64(&b, &ac);
        let mut c = Poly::from_coeff_i64(&b, &cc);
        a.to_eval();
        c.to_eval();
        a.mul_assign(&c);
        a.to_coeff();
        let mut want = vec![0i64; n];
        want[0] = -2;
        want[1] = 1;
        want[2] = 1;
        let expect = Poly::from_coeff_i64(&b, &want);
        for (la, le) in a.limbs().zip(expect.limbs()) {
            assert_eq!(la.data(), le.data());
        }
    }

    #[test]
    fn mac_matches_mul_then_add() {
        let n = 16;
        let b = basis(n, 2);
        let mut x = Poly::from_coeff_i64(&b, &vec![3i64; n]);
        let mut y = Poly::from_coeff_i64(&b, &vec![5i64; n]);
        x.to_eval();
        y.to_eval();
        let mut acc = Poly::zero(&b, Format::Eval);
        acc.mac_assign(&x, &y);
        let mut want = x.clone();
        want.mul_assign(&y);
        for (l, w) in acc.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    fn mac_reads_a_prefix_of_a_longer_operand() {
        let n = 16;
        let long = basis(n, 3);
        let short = &long[..2];
        let coeffs: Vec<i64> = (0..n as i64).map(|i| 7 * i - 40).collect();
        let mut x = Poly::from_coeff_i64(short, &vec![3i64; n]);
        let mut y_long = Poly::from_coeff_i64(&long, &coeffs);
        let mut y_short = Poly::from_coeff_i64(short, &coeffs);
        x.to_eval();
        y_long.to_eval();
        y_short.to_eval();
        let mut got = Poly::zero(short, Format::Eval);
        got.mac_assign(&x, &y_long);
        let mut want = Poly::zero(short, Format::Eval);
        want.mac_assign(&x, &y_short);
        for (l, w) in got.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    #[should_panic(expected = "limb count mismatch")]
    fn mac_rejects_a_shorter_operand() {
        let b = basis(8, 2);
        let x = Poly::zero(&b, Format::Eval);
        let y = Poly::zero(&b[..1], Format::Eval);
        let mut acc = Poly::zero(&b, Format::Eval);
        acc.mac_assign(&x, &y);
    }

    #[test]
    fn scalar_mul() {
        let n = 8;
        let b = basis(n, 2);
        let mut a = Poly::from_coeff_i64(&b, &vec![1i64; n]);
        a.mul_scalar_i64(-3);
        let want = Poly::from_coeff_i64(&b, &vec![-3i64; n]);
        for (l, w) in a.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    fn automorphism_consistent_across_domains() {
        let n = 32;
        let b = basis(n, 2);
        let coeffs: Vec<i64> = (0..n as i64).collect();
        let a = Poly::from_coeff_i64(&b, &coeffs);
        let g = 5u64;
        // coeff-domain automorphism, then NTT
        let mut via_coeff = a.automorphism(g);
        via_coeff.to_eval();
        // NTT, then eval-domain automorphism
        let mut ae = a.clone();
        ae.to_eval();
        let via_eval = ae.automorphism(g);
        for (l, w) in via_eval.limbs().zip(via_coeff.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    fn parallel_ops_match_serial() {
        // Large enough to clear both fan-out gates, exercised at several
        // thread counts; results must be bit-identical.
        let n = 1 << 10;
        let b = basis(n, 8);
        let coeffs: Vec<i64> = (0..n as i64).map(|i| (i * 31 + 7) % 997 - 498).collect();
        let other: Vec<i64> = (0..n as i64).map(|i| (i * 17 + 3) % 991 - 495).collect();

        let reference = {
            parpool::set_threads(1);
            run_shape(&b, &coeffs, &other)
        };
        for t in [2usize, 8] {
            parpool::set_threads(t);
            let got = run_shape(&b, &coeffs, &other);
            assert_eq!(got, reference, "thread count {t} diverged");
        }
        parpool::set_threads(0);
    }

    fn run_shape(b: &[Arc<NttContext>], coeffs: &[i64], other: &[i64]) -> Vec<Vec<u64>> {
        let mut x = Poly::from_coeff_i64(b, coeffs);
        let y = Poly::from_coeff_i64(b, other);
        x.add_assign(&y);
        let mut s = x.subbed(&y);
        s.to_eval();
        let mut ye = y.clone();
        ye.to_eval();
        s.mul_assign(&ye);
        s.mac_assign(&ye, &ye);
        let rot = s.automorphism(5);
        let mut out = rot.added(&s);
        out.to_coeff();
        out.limbs().map(|l| l.data().to_vec()).collect()
    }

    #[test]
    fn limb_management() {
        let b = basis(8, 4);
        let mut a = Poly::zero(&b, Format::Coeff);
        assert_eq!(a.num_limbs(), 4);
        let tail = a.split_off_limbs(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(a.num_limbs(), 2);
        a.extend_limbs(tail);
        assert_eq!(a.num_limbs(), 4);
        a.pop_limb();
        a.truncate_limbs(1);
        assert_eq!(a.num_limbs(), 1);
    }

    #[test]
    #[should_panic(expected = "domain mismatch")]
    fn mixed_domain_add_panics() {
        let b = basis(8, 1);
        let mut a = Poly::zero(&b, Format::Coeff);
        let c = Poly::zero(&b, Format::Eval);
        a.add_assign(&c);
    }

    #[test]
    #[should_panic(expected = "multiplication requires Eval")]
    fn coeff_mul_panics() {
        let b = basis(8, 1);
        let mut a = Poly::zero(&b, Format::Coeff);
        let c = Poly::zero(&b, Format::Coeff);
        a.mul_assign(&c);
    }
}
