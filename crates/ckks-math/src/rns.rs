//! Residue number system (RNS) machinery: basis conversion (BConv), exact
//! rescaling, ModDown, and CRT reconstruction.
//!
//! BConv is the core of ModSwitch (§II-B): converting the representation of a
//! polynomial from one prime basis to another. We implement both the
//! *approximate* conversion used by production RNS-CKKS (a small multiple of
//! the source modulus leaks into the result and is absorbed as noise) and the
//! float-corrected *exact* conversion (HPS-style) used in tests.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::modulus::{Modulus, LAZY_PRODUCTS};
use crate::ntt::NttContext;
use crate::poly::{for_each_tuned, map_tuned, Format, Limb, Poly};
use crate::pool;
use crate::tune::OpClass;

/// Arbitrary-precision unsigned integer (little-endian 64-bit limbs).
///
/// A deliberately minimal big-int: just enough for CRT reconstruction and
/// modulus products. Not performance-critical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UBig(Vec<u64>);

impl UBig {
    /// Zero.
    pub fn zero() -> Self {
        Self(Vec::new())
    }

    /// From a single word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self(vec![v])
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0.is_empty()
    }

    fn normalize(&mut self) {
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &UBig) {
        let mut carry = 0u64;
        for i in 0..other.0.len().max(self.0.len()) {
            if i >= self.0.len() {
                self.0.push(0);
            }
            let b = other.0.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.0[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.0[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            self.0.push(carry);
        }
    }

    /// `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub_assign(&mut self, other: &UBig) {
        assert!(*self >= *other, "UBig subtraction underflow");
        let mut borrow = 0u64;
        for i in 0..self.0.len() {
            let b = other.0.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.0[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.0[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        self.normalize();
    }

    /// Returns `self * m` for a word multiplier.
    pub fn mul_small(&self, m: u64) -> UBig {
        if m == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.0.len() + 1);
        let mut carry = 0u128;
        for &w in &self.0 {
            let t = w as u128 * m as u128 + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        UBig(out)
    }

    /// Returns `self mod m` for a word modulus.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn mod_small(&self, m: u64) -> u64 {
        assert!(m != 0, "modulus must be nonzero");
        let mut r = 0u128;
        for &w in self.0.iter().rev() {
            r = ((r << 64) | w as u128) % m as u128;
        }
        r as u64
    }

    /// Returns `floor(self / 2)`.
    pub fn half(&self) -> UBig {
        let mut out = self.0.clone();
        let mut carry = 0u64;
        for w in out.iter_mut().rev() {
            let new_carry = *w & 1;
            *w = (*w >> 1) | (carry << 63);
            carry = new_carry;
        }
        let mut r = UBig(out);
        r.normalize();
        r
    }

    /// Lossy conversion to `f64` (standard floating rounding).
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &w in self.0.iter().rev() {
            v = v * 18446744073709551616.0 + w as f64;
        }
        v
    }

    /// Number of significant bits.
    pub fn bits(&self) -> u32 {
        match self.0.last() {
            None => 0,
            Some(&w) => (self.0.len() as u32 - 1) * 64 + (64 - w.leading_zeros()),
        }
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0.len() != other.0.len() {
            return self.0.len().cmp(&other.0.len());
        }
        for (a, b) in self.0.iter().rev().zip(other.0.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

/// An RNS basis: an ordered list of coprime prime contexts sharing a ring
/// degree.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    ctxs: Vec<Arc<NttContext>>,
}

impl RnsBasis {
    /// Wraps prime contexts into a basis.
    ///
    /// # Panics
    ///
    /// Panics if empty, if degrees disagree, or if primes repeat.
    pub fn new(ctxs: Vec<Arc<NttContext>>) -> Self {
        assert!(!ctxs.is_empty(), "empty basis");
        let n = ctxs[0].n();
        assert!(ctxs.iter().all(|c| c.n() == n), "mixed ring degrees");
        for i in 0..ctxs.len() {
            for j in i + 1..ctxs.len() {
                assert_ne!(
                    ctxs[i].modulus().value(),
                    ctxs[j].modulus().value(),
                    "repeated prime in basis"
                );
            }
        }
        Self { ctxs }
    }

    /// The prime contexts.
    pub fn contexts(&self) -> &[Arc<NttContext>] {
        &self.ctxs
    }

    /// Number of primes.
    pub fn len(&self) -> usize {
        self.ctxs.len()
    }

    /// True iff the basis is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ctxs.is_empty()
    }

    /// The product of all primes as a big integer.
    pub fn product(&self) -> UBig {
        let mut p = UBig::from_u64(1);
        for c in &self.ctxs {
            p = p.mul_small(c.modulus().value());
        }
        p
    }
}

/// Fast basis conversion from basis `A = {a_i}` to basis `B = {b_j}`
/// (the BConv op of §II-B).
///
/// Operates on coefficient-domain limb data.
#[derive(Debug)]
pub struct BasisConverter {
    from: Vec<Arc<NttContext>>,
    to: Vec<Arc<NttContext>>,
    /// `(A/a_i)^{-1} mod a_i`.
    a_hat_inv: Vec<u64>,
    /// `(A/a_i) mod b_j`, indexed `[j][i]` (one row per target limb).
    a_hat_mod_b: Vec<Vec<u64>>,
    /// `A mod b_j` (for the exact-conversion correction term).
    a_mod_b: Vec<u64>,
    /// `1 / a_i` as floats (for the correction estimate).
    inv_a: Vec<f64>,
}

impl BasisConverter {
    /// Precomputes conversion constants from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the bases share a prime or degrees disagree.
    pub fn new(from: &[Arc<NttContext>], to: &[Arc<NttContext>]) -> Self {
        assert!(!from.is_empty() && !to.is_empty(), "empty basis");
        let n = from[0].n();
        assert!(
            from.iter().chain(to.iter()).all(|c| c.n() == n),
            "mixed ring degrees"
        );
        for f in from {
            for t in to {
                assert_ne!(
                    f.modulus().value(),
                    t.modulus().value(),
                    "bases must be disjoint"
                );
            }
        }
        let mut a = UBig::from_u64(1);
        for c in from {
            a = a.mul_small(c.modulus().value());
        }
        let mut a_hat_inv = Vec::with_capacity(from.len());
        let mut a_hat_mod_b = vec![Vec::with_capacity(from.len()); to.len()];
        for (i, fi) in from.iter().enumerate() {
            let mut hat = UBig::from_u64(1);
            for (j, fj) in from.iter().enumerate() {
                if i != j {
                    hat = hat.mul_small(fj.modulus().value());
                }
            }
            let mi = fi.modulus();
            a_hat_inv.push(mi.inv(hat.mod_small(mi.value())));
            for (row, t) in a_hat_mod_b.iter_mut().zip(to) {
                row.push(hat.mod_small(t.modulus().value()));
            }
        }
        let a_mod_b = to
            .iter()
            .map(|t| a.mod_small(t.modulus().value()))
            .collect();
        let inv_a = from
            .iter()
            .map(|f| 1.0 / f.modulus().value() as f64)
            .collect();
        Self {
            from: from.to_vec(),
            to: to.to_vec(),
            a_hat_inv,
            a_hat_mod_b,
            a_mod_b,
            inv_a,
        }
    }

    /// The source basis.
    pub fn from_basis(&self) -> &[Arc<NttContext>] {
        &self.from
    }

    /// The target basis.
    pub fn to_basis(&self) -> &[Arc<NttContext>] {
        &self.to
    }

    fn convert_impl(&self, limbs: &[&[u64]], exact: bool) -> Vec<Limb> {
        assert_eq!(limbs.len(), self.from.len(), "source limb count mismatch");
        let n = self.from[0].n();
        assert!(limbs.iter().all(|l| l.len() == n), "limb length mismatch");
        // v_i = x_i * (A/a_i)^{-1} mod a_i — independent per source limb.
        let v: Vec<Vec<u64>> = map_tuned(OpClass::Elementwise, n, limbs, |i, limb| {
            let m = self.from[i].modulus();
            let hs = m.shoup(self.a_hat_inv[i]);
            let mut out = pool::take(n);
            for (dst, &x) in out.iter_mut().zip(limb.iter()) {
                *dst = m.mul_shoup(x, self.a_hat_inv[i], hs);
            }
            out
        });
        // Correction multiples (exact conversion only): e_k = round(Σ v_i/a_i).
        // The per-position float sum runs in a fixed order regardless of
        // thread count, keeping rounding deterministic.
        let corrections: Option<Vec<u64>> = exact.then(|| {
            (0..n)
                .map(|k| {
                    let s: f64 = v
                        .iter()
                        .zip(&self.inv_a)
                        .map(|(vi, &ia)| vi[k] as f64 * ia)
                        .sum();
                    (s + 0.5).floor() as u64
                })
                .collect()
        });
        // Each target limb accumulates over all v_i — independent per target.
        let out = map_tuned(OpClass::BConv, limbs.len() * n, &self.to, |j, t| {
            let m = t.modulus();
            let mut out = pool::take(n);
            accumulate(m, &v, &self.a_hat_mod_b[j], &mut out);
            if let Some(es) = &corrections {
                let a_j = self.a_mod_b[j];
                for (dst, &e) in out.iter_mut().zip(es.iter()) {
                    let sub = m.mul(m.reduce(e), a_j);
                    *dst = m.sub(*dst, sub);
                }
            }
            Limb::from_data(t.clone(), out)
        });
        for vi in v {
            pool::give(vi);
        }
        out
    }

    /// Approximate conversion: the output may carry an additive multiple
    /// `u·A` with `|u| ≤ len(from)/2`, absorbed as noise (standard RNS-CKKS).
    pub fn convert_approx(&self, limbs: &[&[u64]]) -> Vec<Limb> {
        self.convert_impl(limbs, false)
    }

    /// Exact conversion for inputs whose centered value is well within
    /// `±A/2` (float-corrected HPS conversion).
    pub fn convert_exact(&self, limbs: &[&[u64]]) -> Vec<Limb> {
        self.convert_impl(limbs, true)
    }
}

/// `out[k] = Σ_i v[i][k] · hats[i] mod m`, with one Barrett reduction per
/// block of [`LAZY_PRODUCTS`] source limbs instead of one per product. Each
/// block after the first carries the previous block's residue in `out`.
fn accumulate(m: &Modulus, v: &[Vec<u64>], hats: &[u64], out: &mut [u64]) {
    let n = out.len();
    let mut rows: [&[u64]; LAZY_PRODUCTS] = [&[]; LAZY_PRODUCTS];
    let blocks = v.chunks(LAZY_PRODUCTS).zip(hats.chunks(LAZY_PRODUCTS));
    for (b, (vs, hs)) in blocks.enumerate() {
        // The block's rows as plain slices on the stack, cut to the
        // output's length.
        for (row, vi) in rows.iter_mut().zip(vs) {
            *row = &vi[..n];
        }
        let rows = &rows[..vs.len()];
        for (k, dst) in out.iter_mut().enumerate() {
            let mut acc = if b == 0 { 0 } else { *dst as u128 };
            for (row, &h) in rows.iter().zip(hs) {
                acc += row[k] as u128 * h as u128;
            }
            *dst = m.reduce_u128(acc);
        }
    }
}

/// The per-product-reducing accumulation [`accumulate`] replaced, reducing
/// with `%` so it shares no reduction code with it. Test oracle only.
#[cfg(test)]
fn accumulate_reference(m: &Modulus, v: &[Vec<u64>], hats: &[u64], out: &mut [u64]) {
    let q = m.value() as u128;
    out.fill(0);
    for (vi, &h) in v.iter().zip(hats) {
        for (dst, &x) in out.iter_mut().zip(vi.iter()) {
            *dst = ((*dst as u128 + x as u128 * h as u128) % q) as u64;
        }
    }
}

/// ModDown: maps a polynomial over the extended basis `Q ∪ P` back to `Q`,
/// dividing by `P` (§II-B; the final step of HROT/HMULT key switching).
#[derive(Debug)]
pub struct ModDown {
    q_basis: Vec<Arc<NttContext>>,
    p_to_q: BasisConverter,
    /// `P^{-1} mod q_j`.
    p_inv_mod_q: Vec<u64>,
}

impl ModDown {
    /// Precomputes for the given `Q` and `P` bases.
    pub fn new(q_basis: &[Arc<NttContext>], p_basis: &[Arc<NttContext>]) -> Self {
        let p_to_q = BasisConverter::new(p_basis, q_basis);
        let mut p = UBig::from_u64(1);
        for c in p_basis {
            p = p.mul_small(c.modulus().value());
        }
        let p_inv_mod_q = q_basis
            .iter()
            .map(|qc| {
                let m = qc.modulus();
                m.inv(p.mod_small(m.value()))
            })
            .collect();
        Self {
            q_basis: q_basis.to_vec(),
            p_to_q,
            p_inv_mod_q,
        }
    }

    /// Number of `Q` limbs expected.
    pub fn q_len(&self) -> usize {
        self.q_basis.len()
    }

    /// Number of `P` limbs expected.
    pub fn p_len(&self) -> usize {
        self.p_to_q.from_basis().len()
    }

    /// Applies ModDown to an evaluation-domain polynomial whose limbs are
    /// ordered `[q_0..q_{L-1}, p_0..p_{α-1}]` (a prefix of the Q basis is
    /// allowed: the ciphertext may be at a reduced level).
    ///
    /// # Panics
    ///
    /// Panics if the input is not in the evaluation domain or the limb
    /// structure does not match.
    pub fn apply(&self, poly: &Poly) -> Poly {
        assert_eq!(poly.format(), Format::Eval, "ModDown expects Eval input");
        let alpha = self.p_len();
        assert!(
            poly.num_limbs() > alpha,
            "input must contain Q limbs plus {alpha} P limbs"
        );
        let l = poly.num_limbs() - alpha;
        // Verify structure.
        for i in 0..l {
            assert_eq!(
                poly.limb(i).ctx().modulus().value(),
                self.q_basis[i].modulus().value(),
                "Q limb {i} mismatch"
            );
        }
        for i in 0..alpha {
            assert_eq!(
                poly.limb(l + i).ctx().modulus().value(),
                self.p_to_q.from_basis()[i].modulus().value(),
                "P limb {i} mismatch"
            );
        }
        // INTT the P limbs (pooled copies), convert to (the first l primes
        // of) Q.
        let n = poly.n();
        let mut p_coeff: Vec<Vec<u64>> = (0..alpha)
            .map(|i| {
                let mut buf = pool::take(n);
                buf.copy_from_slice(poly.limb(l + i).data());
                buf
            })
            .collect();
        // Both NTT batches here go through the same tuner class, keyed on
        // their *actual* batch size (α inverse transforms, then l forward
        // transforms) — the old static gates keyed the two phases on
        // different quantities for the same kind of work.
        for_each_tuned(OpClass::Ntt, n, &mut p_coeff, |i, data| {
            self.p_to_q.from_basis()[i].inverse(data);
        });
        let refs: Vec<&[u64]> = p_coeff.iter().map(|v| v.as_slice()).collect();
        let converted = self.p_to_q.convert_approx(&refs);
        // y_j = (x_j - conv_j) * P^{-1} mod q_j, in the evaluation domain.
        // One forward NTT per Q limb — independent per limb.
        let limbs: Vec<Limb> = map_tuned(OpClass::Ntt, n, &self.q_basis[..l], |j, qc| {
            let m = qc.modulus();
            let mut conv = pool::take(n);
            conv.copy_from_slice(converted[j].data());
            qc.forward(&mut conv);
            let pinv = self.p_inv_mod_q[j];
            let pinv_s = m.shoup(pinv);
            let mut data = pool::take(n);
            for ((d, &x), &c) in data.iter_mut().zip(poly.limb(j).data()).zip(conv.iter()) {
                *d = m.mul_shoup(m.sub(x, c), pinv, pinv_s);
            }
            pool::give(conv);
            Limb::from_data(qc.clone(), data)
        });
        for buf in p_coeff {
            pool::give(buf);
        }
        Poly::from_limbs(limbs, Format::Eval)
    }
}

/// Rescales an evaluation-domain polynomial by its last prime: drops the last
/// limb and divides the value by that prime (the CKKS rescale / the epilogue
/// of `ModDownEp` in Table II).
///
/// # Panics
///
/// Panics if the polynomial is not in the evaluation domain or has a single
/// limb.
pub fn rescale_in_place(poly: &mut Poly) {
    assert_eq!(poly.format(), Format::Eval, "rescale expects Eval input");
    assert!(
        poly.num_limbs() > 1,
        "cannot rescale a single-limb polynomial"
    );
    let n = poly.n();
    let last = poly.pop_limb();
    let q_last = last.ctx().modulus().value();
    let mut last_coeff = pool::take(n);
    last_coeff.copy_from_slice(last.data());
    last.ctx().inverse(&mut last_coeff);
    let half = q_last / 2;
    // Each remaining limb builds its own correction term and runs one
    // forward NTT — independent per limb.
    let last_coeff_ref = &last_coeff;
    for_each_tuned(OpClass::Ntt, n, poly.limbs_mut(), |_, limb| {
        let qc = Arc::clone(limb.ctx());
        let m = *qc.modulus();
        // Reduce the centered representative of x_last into q_j.
        let mut corr = pool::take(n);
        for (d, &x) in corr.iter_mut().zip(last_coeff_ref.iter()) {
            *d = if x > half {
                // x - q_last (negative)
                m.from_i64(x as i64 - q_last as i64)
            } else {
                m.reduce(x)
            };
        }
        qc.forward(&mut corr);
        let inv = m.inv(m.reduce(q_last));
        let inv_s = m.shoup(inv);
        for (x, &c) in limb.data_mut().iter_mut().zip(corr.iter()) {
            *x = m.mul_shoup(m.sub(*x, c), inv, inv_s);
        }
        pool::give(corr);
    });
    pool::give(last_coeff);
}

/// CRT reconstruction of centered big-integer coefficients from RNS limbs.
#[derive(Debug)]
pub struct CrtReconstructor {
    moduli: Vec<u64>,
    q: UBig,
    q_half: UBig,
    /// `Q / q_i`.
    q_hat: Vec<UBig>,
    /// `(Q/q_i)^{-1} mod q_i`.
    q_hat_inv: Vec<u64>,
}

impl CrtReconstructor {
    /// Precomputes for the given basis.
    pub fn new(basis: &[Arc<NttContext>]) -> Self {
        let moduli: Vec<u64> = basis.iter().map(|c| c.modulus().value()).collect();
        let mut q = UBig::from_u64(1);
        for &m in &moduli {
            q = q.mul_small(m);
        }
        let mut q_hat = Vec::with_capacity(moduli.len());
        let mut q_hat_inv = Vec::with_capacity(moduli.len());
        for (i, c) in basis.iter().enumerate() {
            let mut hat = UBig::from_u64(1);
            for (j, &m) in moduli.iter().enumerate() {
                if i != j {
                    hat = hat.mul_small(m);
                }
            }
            let m = c.modulus();
            q_hat_inv.push(m.inv(hat.mod_small(m.value())));
            q_hat.push(hat);
        }
        let q_half = q.half();
        Self {
            moduli,
            q,
            q_half,
            q_hat,
            q_hat_inv,
        }
    }

    /// The modulus product `Q`.
    pub fn modulus_product(&self) -> &UBig {
        &self.q
    }

    /// Reconstructs the centered value at coefficient position `k` from the
    /// per-limb residues, returned as `f64` (adequate for measuring CKKS
    /// decode error, not exact beyond 53 bits).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn reconstruct_centered_f64(&self, residues: &[u64]) -> f64 {
        assert_eq!(residues.len(), self.moduli.len(), "residue count mismatch");
        // x = Σ [r_i * qhat_inv_i]_{q_i} * qhat_i  (mod Q)
        let mut x = UBig::zero();
        for (i, &r) in residues.iter().enumerate() {
            let m = crate::modulus::Modulus::new(self.moduli[i]);
            let t = m.mul(m.reduce(r), self.q_hat_inv[i]);
            x.add_assign(&self.q_hat[i].mul_small(t));
        }
        // Reduce mod Q (x < L*Q so a short subtraction loop suffices).
        while x >= self.q {
            x.sub_assign(&self.q);
        }
        if x > self.q_half {
            let mut neg = self.q.clone();
            neg.sub_assign(&x);
            -neg.to_f64()
        } else {
            x.to_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;
    use proptest::prelude::*;

    fn make_basis(n: usize, count: usize, bits: u32, skip: usize) -> Vec<Arc<NttContext>> {
        generate_ntt_primes(bits, count + skip, 2 * n as u64)
            .into_iter()
            .skip(skip)
            .map(|q| Arc::new(NttContext::new(n, Modulus::new(q))))
            .collect()
    }

    #[test]
    fn ubig_arithmetic() {
        let mut a = UBig::from_u64(u64::MAX);
        a.add_assign(&UBig::from_u64(1));
        assert_eq!(a.bits(), 65);
        let b = a.mul_small(u64::MAX);
        assert!(b > a);
        let mut c = b.clone();
        c.sub_assign(&b);
        assert!(c.is_zero());
        assert_eq!(UBig::from_u64(100).mod_small(7), 2);
        assert_eq!(UBig::from_u64(100).half(), UBig::from_u64(50));
        assert_eq!(UBig::from_u64(1 << 20).to_f64(), 1048576.0);
    }

    #[test]
    fn ubig_mod_small_matches_u128() {
        let a = UBig::from_u64(0xdead_beef_1234_5678).mul_small(0x9999_8888_7777_6666);
        let val = 0xdead_beef_1234_5678u128 * 0x9999_8888_7777_6666u128;
        for m in [3u64, 97, 1 << 40, 0xffff_fffb] {
            assert_eq!(a.mod_small(m), (val % m as u128) as u64);
        }
    }

    #[test]
    fn bconv_exact_small_values() {
        let n = 16;
        let from = make_basis(n, 2, 40, 0);
        let to = make_basis(n, 2, 40, 2);
        let conv = BasisConverter::new(&from, &to);
        // Encode small signed values in the source basis.
        let vals: Vec<i64> = (0..n as i64).map(|i| i * 1001 - 8000).collect();
        let src = Poly::from_coeff_i64(&from, &vals);
        let refs: Vec<&[u64]> = (0..src.num_limbs()).map(|i| src.limb(i).data()).collect();
        let out = conv.convert_exact(&refs);
        let want = Poly::from_coeff_i64(&to, &vals);
        for (l, w) in out.iter().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    fn bconv_approx_error_is_multiple_of_source_modulus() {
        let n = 8;
        let from = make_basis(n, 2, 40, 0);
        let to = make_basis(n, 1, 40, 2);
        let conv = BasisConverter::new(&from, &to);
        let vals: Vec<i64> = (0..n as i64).map(|i| -i * 12345).collect();
        let src = Poly::from_coeff_i64(&from, &vals);
        let refs: Vec<&[u64]> = (0..src.num_limbs()).map(|i| src.limb(i).data()).collect();
        let approx = conv.convert_approx(&refs);
        let m = to[0].modulus();
        let a_mod: u64 = {
            let mut a = UBig::from_u64(1);
            for c in &from {
                a = a.mul_small(c.modulus().value());
            }
            a.mod_small(m.value())
        };
        let want = Poly::from_coeff_i64(&to, &vals);
        for (got, wl) in approx[0].data().iter().zip(want.limb(0).data()) {
            // got - want must be u * A mod q for small |u|.
            let diff = m.sub(*got, *wl);
            let ok = (0..=2u64).any(|u| {
                diff == m.reduce_u128(u as u128 * a_mod as u128)
                    || m.neg(diff) == m.reduce_u128(u as u128 * a_mod as u128)
            });
            assert!(ok, "approx error must be a small multiple of A");
        }
    }

    #[test]
    fn mod_down_divides_by_p() {
        let n = 16;
        let q_basis = make_basis(n, 2, 40, 0);
        let p_basis = make_basis(n, 1, 40, 2);
        let p_val = p_basis[0].modulus().value();
        let md = ModDown::new(&q_basis, &p_basis);
        assert_eq!(md.q_len(), 2);
        assert_eq!(md.p_len(), 1);
        // Build x = value * P for small values so ModDown returns ~value.
        let vals: Vec<i64> = (0..n as i64).map(|i| i - 8).collect();
        let scaled: Vec<i64> = vals.iter().map(|&v| v * p_val as i64).collect();
        let mut full_basis = q_basis.clone();
        full_basis.extend(p_basis.clone());
        let mut x = Poly::from_coeff_i64(&full_basis, &scaled);
        x.to_eval();
        let mut y = md.apply(&x);
        y.to_coeff();
        let want = Poly::from_coeff_i64(&q_basis, &vals);
        for (l, w) in y.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    fn rescale_divides_by_last_prime() {
        let n = 16;
        let basis = make_basis(n, 3, 40, 0);
        let q_last = basis[2].modulus().value();
        let vals: Vec<i64> = (0..n as i64).map(|i| 7 * i - 50).collect();
        let scaled: Vec<i64> = vals.iter().map(|&v| v * q_last as i64).collect();
        let mut x = Poly::from_coeff_i64(&basis, &scaled);
        x.to_eval();
        rescale_in_place(&mut x);
        x.to_coeff();
        assert_eq!(x.num_limbs(), 2);
        let want = Poly::from_coeff_i64(&basis[..2], &vals);
        for (l, w) in x.limbs().zip(want.limbs()) {
            assert_eq!(l.data(), w.data());
        }
    }

    #[test]
    fn rescale_rounds_inexact_values() {
        // x not divisible by q_last: rescale returns round-ish (x/q) with
        // error < 1 in value space, i.e. |q*y - x| <= q/2 + small.
        let n = 8;
        let basis = make_basis(n, 2, 40, 0);
        let q_last = basis[1].modulus().value() as i64;
        let vals: Vec<i64> = (0..n as i64).map(|i| i * q_last + 12345).collect();
        let mut x = Poly::from_coeff_i64(&basis, &vals);
        x.to_eval();
        rescale_in_place(&mut x);
        x.to_coeff();
        let m = basis[0].modulus();
        for (k, &v) in vals.iter().enumerate() {
            let y = m.to_centered(x.limb(0).data()[k]);
            let approx = v as f64 / q_last as f64;
            assert!((y as f64 - approx).abs() <= 1.0, "rounded division");
        }
    }

    #[test]
    fn crt_reconstruction() {
        let n = 8;
        let basis = make_basis(n, 3, 40, 0);
        let crt = CrtReconstructor::new(&basis);
        let vals: Vec<i64> = vec![0, 1, -1, 123456789, -987654321, 42, -42, 7];
        let p = Poly::from_coeff_i64(&basis, &vals);
        for (k, &v) in vals.iter().enumerate().take(n) {
            let residues: Vec<u64> = (0..3).map(|i| p.limb(i).data()[k]).collect();
            let got = crt.reconstruct_centered_f64(&residues);
            assert_eq!(got, v as f64);
        }
        assert!(crt.modulus_product().bits() >= 118);
    }

    /// The conversion as it was before blocked accumulation: `v_i` by Barrett
    /// multiplication, then [`accumulate_reference`] per target limb.
    fn convert_reference(conv: &BasisConverter, limbs: &[&[u64]]) -> Vec<Vec<u64>> {
        let v: Vec<Vec<u64>> = limbs
            .iter()
            .zip(&conv.from)
            .zip(&conv.a_hat_inv)
            .map(|((l, c), &h)| l.iter().map(|&x| c.modulus().mul(x, h)).collect())
            .collect();
        conv.to
            .iter()
            .zip(&conv.a_hat_mod_b)
            .map(|(t, hats)| {
                let mut out = vec![0; limbs[0].len()];
                accumulate_reference(t.modulus(), &v, hats, &mut out);
                out
            })
            .collect()
    }

    #[test]
    fn blocked_bconv_matches_reference_across_block_boundaries() {
        // 16, 17 and 31 source limbs cross one or two 15-limb block
        // boundaries.
        let n = 128;
        for from_len in [1, 15, 16, 17, 31] {
            // 62-bit primes: the widest residues, so products near 2^124.
            let mut from = make_basis(n, from_len + 2, 62, 0);
            let to = from.split_off(from_len);
            let conv = BasisConverter::new(&from, &to);
            let saturated: Vec<Vec<u64>> = from
                .iter()
                .map(|c| vec![c.modulus().value() - 1; n])
                .collect();
            let mixed: Vec<Vec<u64>> = from
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let q = c.modulus().value();
                    (0..n as u64)
                        .map(|k| (q - 1 - k * (i as u64 + 3)) % q)
                        .collect()
                })
                .collect();
            for src in [saturated, mixed] {
                let refs: Vec<&[u64]> = src.iter().map(|l| l.as_slice()).collect();
                let got = conv.convert_approx(&refs);
                let want = convert_reference(&conv, &refs);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.data(), w.as_slice(), "from_len {from_len}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn blocked_accumulation_matches_reference(
            sources in 1usize..=40,
            log_n in 2u32..=7,
            saturated in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let n = 1usize << log_n;
            let m = Modulus::new(generate_ntt_primes(62, 1, 2 * n as u64)[0]);
            let q = m.value();
            let mut state = seed;
            let mut next = |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if saturated { bound - 1 } else { state % bound }
            };
            // Source residues up to 2^62 (any source prime), hats below q.
            let v: Vec<Vec<u64>> = (0..sources)
                .map(|_| (0..n).map(|_| next(1 << 62)).collect())
                .collect();
            let hats: Vec<u64> = (0..sources).map(|_| next(q)).collect();
            let mut got = vec![0; n];
            let mut want = vec![0; n];
            accumulate(&m, &v, &hats, &mut got);
            accumulate_reference(&m, &v, &hats, &mut want);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "bases must be disjoint")]
    fn overlapping_bases_rejected() {
        let n = 8;
        let b = make_basis(n, 2, 40, 0);
        let _ = BasisConverter::new(&b, &b);
    }

    #[test]
    fn rns_basis_product() {
        let n = 8;
        let b = RnsBasis::new(make_basis(n, 2, 40, 0));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        let prod = b.product();
        assert_eq!(prod.mod_small(b.contexts()[0].modulus().value()), 0);
    }
}
