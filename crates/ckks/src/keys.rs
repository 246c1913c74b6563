//! Key material: secret key, public key, and gadget-decomposed evaluation
//! keys (evk).
//!
//! An evk comprises `2·D` polynomials in `R_PQ` (Table I): for each of the
//! `D` decomposition digits, a pair `(b_j, a_j)` with
//! `b_j = −a_j·s' + e_j + g_j·s''`, where `g_j = P·Q̂_j·[Q̂_j^{-1}]_{Q_j}` is
//! the RNS gadget. Rotation keys are stored in the *hoisted* ("automorphism
//! last") form of Bossuat et al. \[8\], which is the structure Anaheim's
//! reordering relies on (§V-B): the key switches from `φ_g^{-1}(s)` to `s`,
//! so the automorphism can be applied after the inner product, on just two
//! polynomials.

use std::collections::HashMap;

use ckks_math::poly::{Format, Poly};
use ckks_math::sampling;
use rand::Rng;

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::context::CkksContext;

/// The secret key `s` (ternary, fixed Hamming weight), stored in the
/// evaluation domain over the full `Q‖P` basis.
#[derive(Debug, Clone)]
pub struct SecretKey {
    s: Poly,
    q_count: usize,
}

impl SecretKey {
    /// The key polynomial over the full basis.
    pub fn poly(&self) -> &Poly {
        &self.s
    }

    /// The key restricted to the first `level` `Q` primes.
    pub fn q_prefix(&self, level: usize) -> Poly {
        let limbs = (0..level).map(|i| self.s.limb(i).clone()).collect();
        Poly::from_limbs(limbs, Format::Eval)
    }

    /// Decrypts a ciphertext to a plaintext (`m ≈ b + a·s`).
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let mut m = ct.b().clone();
        m.mac_assign(ct.a(), &self.s);
        Plaintext::new(m, ct.scale(), ct.level())
    }

    /// Total number of `Q` primes in the parent context (for prefixing).
    pub fn q_count(&self) -> usize {
        self.q_count
    }
}

/// The public encryption key `(b, a) = (−a·s + e, a)` over the full `Q`
/// basis.
#[derive(Debug, Clone)]
pub struct PublicKey {
    b: Poly,
    a: Poly,
    hamming_weight: usize,
    sigma: f64,
}

impl PublicKey {
    /// Encrypts a plaintext: samples ternary `v` and errors `e_0, e_1`, and
    /// outputs `(v·pk.b + e_0 + m, v·pk.a + e_1)`.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let level = pt.level();
        let basis = pt.poly().basis();
        let mut v = sampling::ternary(rng, &basis, self.hamming_weight);
        v.to_eval();
        let mut e0 = sampling::gaussian(rng, &basis, self.sigma);
        e0.to_eval();
        let mut e1 = sampling::gaussian(rng, &basis, self.sigma);
        e1.to_eval();

        let mut b = e0;
        b.mac_assign(&v, &self.b);
        b.add_assign(pt.poly());
        let mut a = e1;
        a.mac_assign(&v, &self.a);
        Ciphertext::new(b, a, pt.scale(), level)
    }
}

/// A gadget-decomposed key-switching key: `D` pairs over the full `Q‖P`
/// basis.
#[derive(Debug, Clone)]
pub struct EvalKey {
    digits: Vec<(Poly, Poly)>,
}

impl EvalKey {
    /// Reassembles a key from its digit pairs (deserialization path).
    pub(crate) fn from_digits(digits: Vec<(Poly, Poly)>) -> Self {
        Self { digits }
    }

    /// The number of decomposition digits `D`.
    pub fn num_digits(&self) -> usize {
        self.digits.len()
    }

    /// The `(b_j, a_j)` pair for digit `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn digit(&self, j: usize) -> (&Poly, &Poly) {
        let (b, a) = &self.digits[j];
        (b, a)
    }

    /// Size in bytes if stored with the paper's 32-bit words, for memory
    /// accounting (`2·D·(L+α)·N` words).
    pub fn size_bytes_32(&self) -> usize {
        self.digits
            .iter()
            .map(|(b, a)| (b.num_limbs() + a.num_limbs()) * b.n() * 4)
            .sum()
    }
}

/// Everything produced by key generation.
#[derive(Debug)]
pub struct KeySet {
    /// The secret key (kept here for tests/examples; a real deployment would
    /// not ship it with the evaluation keys).
    pub secret: SecretKey,
    /// The public encryption key.
    pub public: PublicKey,
    /// The relinearization key (`s² → s`).
    pub relin: EvalKey,
    /// Rotation keys in hoisted form, by slot distance.
    pub rotations: HashMap<isize, EvalKey>,
    /// The conjugation key.
    pub conjugation: EvalKey,
}

impl KeySet {
    /// Looks up the rotation key for slot distance `r` (normalized modulo
    /// the slot count).
    pub fn rotation(&self, r: isize, slots: usize) -> Option<&EvalKey> {
        let r = r.rem_euclid(slots as isize);
        self.rotations.get(&r)
    }

    /// Inserts a rotation key.
    pub fn add_rotation(&mut self, r: isize, key: EvalKey) {
        self.rotations.insert(r, key);
    }
}

/// Generates all key material for a context.
#[derive(Debug)]
pub struct KeyGenerator<'a, 'r, R: Rng + ?Sized> {
    ctx: &'a CkksContext,
    rng: &'r mut R,
}

impl<'a, 'r, R: Rng + ?Sized> KeyGenerator<'a, 'r, R> {
    /// Binds a context and randomness source.
    pub fn new(ctx: &'a CkksContext, rng: &'r mut R) -> Self {
        Self { ctx, rng }
    }

    /// Generates secret, public, relinearization, conjugation, and the
    /// requested rotation keys.
    pub fn generate(mut self, rotations: &[isize]) -> KeySet {
        let secret = self.gen_secret();
        let public = self.gen_public(&secret);
        let relin = self.gen_relin(&secret);
        let conjugation = self.gen_conjugation(&secret);
        let mut rot_keys = HashMap::new();
        for &r in rotations {
            let r = r.rem_euclid(self.ctx.slots() as isize);
            if r != 0 {
                rot_keys
                    .entry(r)
                    .or_insert_with(|| self.gen_rotation(&secret, r));
            }
        }
        KeySet {
            secret,
            public,
            relin,
            rotations: rot_keys,
            conjugation,
        }
    }

    /// Samples a fresh ternary secret key.
    pub fn gen_secret(&mut self) -> SecretKey {
        let basis = self.ctx.basis_full();
        let mut s = sampling::ternary(self.rng, &basis, self.ctx.params().hamming_weight);
        s.to_eval();
        SecretKey {
            s,
            q_count: self.ctx.max_level(),
        }
    }

    /// Derives the public key from a secret key.
    pub fn gen_public(&mut self, sk: &SecretKey) -> PublicKey {
        let basis = self.ctx.basis_q(self.ctx.max_level()).to_vec();
        let a = sampling::uniform(self.rng, &basis, Format::Eval);
        let mut e = sampling::gaussian(self.rng, &basis, self.ctx.params().sigma);
        e.to_eval();
        let s = sk.q_prefix(self.ctx.max_level());
        // b = -a·s + e
        let mut b = a.clone();
        b.mul_assign(&s);
        b.neg_assign();
        b.add_assign(&e);
        PublicKey {
            b,
            a,
            hamming_weight: self.ctx.params().hamming_weight,
            sigma: self.ctx.params().sigma,
        }
    }

    /// Generates a switching key from `under` to gadget-encoded `target`:
    /// for each digit `j`, `(−a_j·under + e_j + g_j·target, a_j)`.
    pub fn gen_switching_key(&mut self, under: &Poly, target: &Poly) -> EvalKey {
        let basis = self.ctx.basis_full();
        let d = self.ctx.decomposition_number();
        let digits = (0..d)
            .map(|j| {
                let a = sampling::uniform(self.rng, &basis, Format::Eval);
                let mut e = sampling::gaussian(self.rng, &basis, self.ctx.params().sigma);
                e.to_eval();
                let mut b = a.clone();
                b.mul_assign(under);
                b.neg_assign();
                b.add_assign(&e);
                // + g_j ⊙ target
                let mut gt = target.clone();
                let scalars: Vec<u64> = (0..basis.len())
                    .map(|idx| self.ctx.gadget_residue(j, idx))
                    .collect();
                gt.mul_scalar_per_limb(&scalars);
                b.add_assign(&gt);
                (b, a)
            })
            .collect();
        EvalKey { digits }
    }

    /// Relinearization key: switches `s²` back to `s`.
    pub fn gen_relin(&mut self, sk: &SecretKey) -> EvalKey {
        let mut s2 = sk.poly().clone();
        s2.mul_assign(sk.poly());
        self.gen_switching_key(sk.poly(), &s2)
    }

    /// Rotation key for slot distance `r`, in hoisted (automorphism-last)
    /// form: switches from `φ_g^{-1}(s)` to `s`, `g = 5^r mod 2N`.
    pub fn gen_rotation(&mut self, sk: &SecretKey, r: isize) -> EvalKey {
        let g = galois_for_rotation(self.ctx.n(), r);
        let g_inv = inverse_odd_mod_pow2(g, 2 * self.ctx.n() as u64);
        let under = sk.poly().automorphism(g_inv);
        let target = sk.poly().clone();
        self.gen_switching_key(&under, &target)
    }

    /// Conjugation key in hoisted form (`g = 2N−1` is self-inverse).
    pub fn gen_conjugation(&mut self, sk: &SecretKey) -> EvalKey {
        let g = 2 * self.ctx.n() as u64 - 1;
        let under = sk.poly().automorphism(g);
        let target = sk.poly().clone();
        self.gen_switching_key(&under, &target)
    }
}

/// The Galois element for a cyclic slot rotation by `r` (`5^r mod 2N`).
pub fn galois_for_rotation(n: usize, r: isize) -> u64 {
    let slots = (n / 2) as isize;
    let two_n = 2 * n as u64;
    let r = r.rem_euclid(slots) as u32;
    let mut g = 1u64;
    for _ in 0..r {
        g = (g * 5) % two_n;
    }
    g
}

/// Inverse of an odd element modulo a power of two (Newton iteration).
///
/// # Panics
///
/// Panics if `g` is even or `m` is not a power of two.
pub fn inverse_odd_mod_pow2(g: u64, m: u64) -> u64 {
    assert!(g % 2 == 1, "only odd elements are invertible mod 2^k");
    assert!(m.is_power_of_two(), "modulus must be a power of two");
    let mut x = 1u64; // inverse mod 2
    let mut bits = 1;
    while (1u64 << bits) < m {
        // x' = x(2 - g·x) doubles the number of correct bits.
        x = x.wrapping_mul(2u64.wrapping_sub(g.wrapping_mul(x)));
        bits *= 2;
    }
    x % m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{max_error, Complex};
    use crate::encoding::Encoder;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, KeySet) {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(42);
        let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[1, 2]);
        (ctx, keys)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, keys) = setup();
        let enc = Encoder::new(&ctx);
        let msg: Vec<Complex> = (0..ctx.slots())
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos() * 0.5))
            .collect();
        let pt = enc.encode(&msg, ctx.max_level());
        let mut rng = StdRng::seed_from_u64(7);
        let ct = keys.public.encrypt(&pt, &mut rng);
        let out = enc.decode(&keys.secret.decrypt(&ct));
        let err = max_error(&msg, &out);
        assert!(err < 1e-6, "decryption error too large: {err}");
    }

    #[test]
    fn encrypt_at_lower_level() {
        let (ctx, keys) = setup();
        let enc = Encoder::new(&ctx);
        let msg: Vec<Complex> = vec![Complex::new(0.25, -0.125); ctx.slots()];
        let pt = enc.encode(&msg, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let ct = keys.public.encrypt(&pt, &mut rng);
        assert_eq!(ct.level(), 2);
        let out = enc.decode(&keys.secret.decrypt(&ct));
        assert!(max_error(&msg, &out) < 1e-6);
    }

    #[test]
    fn evk_structure() {
        let (ctx, keys) = setup();
        assert_eq!(keys.relin.num_digits(), ctx.decomposition_number());
        let (b, a) = keys.relin.digit(0);
        assert_eq!(b.num_limbs(), ctx.max_level() + ctx.params().alpha);
        assert_eq!(a.num_limbs(), ctx.max_level() + ctx.params().alpha);
        // 2 · D · (L+α) · N · 4 bytes
        let want = 2 * 3 * 7 * 1024 * 4;
        assert_eq!(keys.relin.size_bytes_32(), want);
    }

    #[test]
    fn rotation_key_lookup_normalizes() {
        let (ctx, keys) = setup();
        let m = ctx.slots();
        assert!(keys.rotation(1, m).is_some());
        assert!(
            keys.rotation(1 - m as isize, m).is_some(),
            "wraps mod slots"
        );
        assert!(keys.rotation(3, m).is_none());
    }

    #[test]
    fn rotation_wraps_at_slot_boundaries() {
        let (ctx, keys) = setup(); // keys for distances {1, 2}
        let m = ctx.slots();
        let m_i = m as isize;
        // Every representative of the residue class resolves to the same key
        // object: ±k·slots offsets and the exact slot-count boundary.
        let base = keys.rotation(1, m).expect("base key") as *const EvalKey;
        for r in [1, 1 + m_i, 1 - m_i, 1 + 3 * m_i, 1 - 2 * m_i] {
            let k = keys.rotation(r, m).expect("wraps to distance 1");
            assert!(std::ptr::eq(k, base), "r={r} must resolve to the same key");
        }
        // Distance 0 (and all multiples of the slot count) normalizes to the
        // identity rotation, which is never stored.
        for r in [0, m_i, -m_i, 2 * m_i] {
            assert!(keys.rotation(r, m).is_none(), "r={r} is the identity");
        }
        // Negative distances wrap to their positive complement.
        assert!(
            std::ptr::eq(
                keys.rotation(-(m_i - 2), m).expect("complement of 2"),
                keys.rotation(2, m).expect("distance 2")
            ),
            "-(slots-2) and 2 are the same class"
        );
    }

    #[test]
    fn generation_normalizes_requested_distances() {
        let ctx = CkksContext::new(CkksParams::test_small());
        let m = ctx.slots() as isize;
        let mut rng = StdRng::seed_from_u64(43);
        // m + 2 wraps to 2; -1 wraps to slots − 1; m wraps to the identity
        // and must not produce a key.
        let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[m + 2, -1, m]);
        assert_eq!(keys.rotations.len(), 2);
        assert!(keys.rotation(2, ctx.slots()).is_some());
        assert!(keys.rotation(-1, ctx.slots()).is_some());
        assert!(
            keys.rotation(m - 1, ctx.slots()).is_some(),
            "same class as -1"
        );
        assert!(keys.rotation(0, ctx.slots()).is_none());
    }

    #[test]
    fn inverse_odd_mod_pow2_works() {
        for g in [1u64, 3, 5, 2047, 12345].iter().copied() {
            let m = 1u64 << 12;
            let inv = inverse_odd_mod_pow2(g, m);
            assert_eq!((g.wrapping_mul(inv)) % m, 1, "g = {g}");
        }
    }

    #[test]
    fn galois_powers() {
        assert_eq!(galois_for_rotation(1024, 0), 1);
        assert_eq!(galois_for_rotation(1024, 1), 5);
        assert_eq!(galois_for_rotation(1024, 2), 25);
        // r and r mod slots coincide
        assert_eq!(
            galois_for_rotation(1024, 3),
            galois_for_rotation(1024, 3 + 512)
        );
    }
}
