//! Homomorphic linear transforms with diagonal packing (§III-B).
//!
//! A linear map `y = M·x` on slot vectors is evaluated as
//! `y = Σ_r diag_r(M) ⊙ (x ≪ r)` over the nonzero diagonals of `M`
//! [Halevi–Shoup]. Three evaluation strategies are provided, matching the
//! paper's discussion:
//!
//! - [`LinearTransform::prepare`] + [`PreparedTransform::eval`] —
//!   **double-hoisted baby-step giant-step** (the paper's Fig. 5 flow):
//!   one shared ModUp, baby KeyMults kept in the extended modulus, PMACs on
//!   plaintexts prepared once, one ModDown per giant group. The plaintexts
//!   are encoded offline and already carry each baby's automorphism (the
//!   §V-B reordering), so a call runs element-wise work and key switching
//!   only. [`LinearTransform::eval_hoisted`] (plain **hoisting**, one giant
//!   group) and [`LinearTransform::eval_bsgs_double_hoisted`] prepare and
//!   evaluate in one call.
//! - [`LinearTransform::eval_minks`] — **MinKS**: iterated rotations by 1
//!   reusing a single evk (minimum key-switching keys, favoured by
//!   large-cache ASICs, §III-C).
//! - [`LinearTransform::eval_bsgs`] — **baby-step giant-step** with a
//!   ModDown per baby: `O(√K)` key switches.

use std::collections::{BTreeMap, BTreeSet};

use ckks_math::poly::{Format, Poly};

use crate::ciphertext::Ciphertext;
use crate::complex::Complex;
use crate::encoding::Encoder;
use crate::eval::Evaluator;
use crate::keys::{galois_for_rotation, KeySet};
use crate::opcount;

/// A slot-space linear map stored by its nonzero diagonals.
///
/// `diag_r[j] = M[j][(j+r) mod slots]`, so
/// `y_j = Σ_r diag_r[j] · x_{(j+r) mod slots}`.
#[derive(Debug, Clone)]
pub struct LinearTransform {
    slots: usize,
    diags: BTreeMap<usize, Vec<Complex>>,
}

impl LinearTransform {
    /// Creates an empty transform on `slots` slots.
    pub fn new(slots: usize) -> Self {
        Self {
            slots,
            diags: BTreeMap::new(),
        }
    }

    /// Builds from an explicit diagonal map.
    ///
    /// # Panics
    ///
    /// Panics if any diagonal has the wrong length or index.
    pub fn from_diagonals(slots: usize, diags: BTreeMap<usize, Vec<Complex>>) -> Self {
        let mut t = Self::new(slots);
        for (r, d) in diags {
            t.set_diagonal(r, d);
        }
        t
    }

    /// Builds from a dense matrix (rows × cols = slots × slots), extracting
    /// nonzero diagonals. Intended for tests and for bootstrapping matrices
    /// at small `N`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square with side `slots`.
    pub fn from_matrix(slots: usize, m: &[Vec<Complex>]) -> Self {
        assert_eq!(m.len(), slots, "row count");
        let mut t = Self::new(slots);
        for r in 0..slots {
            let diag: Vec<Complex> = (0..slots)
                .map(|j| {
                    assert_eq!(m[j].len(), slots, "column count");
                    m[j][(j + r) % slots]
                })
                .collect();
            if diag.iter().any(|z| z.abs() > 1e-12) {
                t.set_diagonal(r, diag);
            }
        }
        t
    }

    /// Sets diagonal `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= slots` or the length is wrong.
    pub fn set_diagonal(&mut self, r: usize, diag: Vec<Complex>) {
        assert!(r < self.slots, "diagonal index out of range");
        assert_eq!(diag.len(), self.slots, "diagonal length mismatch");
        self.diags.insert(r, diag);
    }

    /// The number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The stored diagonals.
    pub fn diagonals(&self) -> &BTreeMap<usize, Vec<Complex>> {
        &self.diags
    }

    /// Number of nonzero diagonals `K`.
    pub fn num_diagonals(&self) -> usize {
        self.diags.len()
    }

    /// Reference (plaintext) application of the transform.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != slots`.
    pub fn apply_plain(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.slots, "input length mismatch");
        let mut y = vec![Complex::ZERO; self.slots];
        for (r, diag) in &self.diags {
            for j in 0..self.slots {
                y[j] += diag[j] * x[(j + r) % self.slots];
            }
        }
        y
    }

    /// The rotation distances required by [`Self::eval_hoisted`].
    pub fn required_rotations(&self) -> Vec<isize> {
        self.diags
            .keys()
            .filter(|&&r| r != 0)
            .map(|&r| r as isize)
            .collect()
    }

    /// The rotation distances required by [`Self::eval_bsgs`] for a given
    /// baby-step count `n1`: baby steps `1..n1` and the giant steps.
    pub fn required_rotations_bsgs(&self, n1: usize) -> Vec<isize> {
        let mut out: Vec<isize> = (1..n1 as isize).collect();
        let mut giants: Vec<isize> = self
            .diags
            .keys()
            .map(|&r| (r / n1 * n1) as isize)
            .filter(|&g| g != 0)
            .collect();
        giants.sort_unstable();
        giants.dedup();
        out.extend(giants);
        out
    }

    /// Hoisted evaluation (the paper's Fig. 5 flow): double-hoisted BSGS
    /// with one giant group, so every diagonal is a baby step. Output scale
    /// is `ct.scale · Δ`; rescale afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a required rotation key is missing.
    pub fn eval_hoisted(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        keys: &KeySet,
    ) -> Ciphertext {
        self.eval_bsgs_double_hoisted(ev, enc, ct, keys, self.slots)
    }

    /// MinKS evaluation: iterated rotation by 1 with a single evk (§III-B).
    /// Output scale is `ct.scale · Δ`; rescale afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the rotation-by-1 key is missing.
    pub fn eval_minks(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        keys: &KeySet,
    ) -> Ciphertext {
        let ctx = ev.context();
        let level = ct.level();
        let delta = ctx.params().scale();
        let basis_q = ctx.basis_q(level).to_vec();
        let mut acc_b = Poly::zero(&basis_q, Format::Eval);
        let mut acc_a = Poly::zero(&basis_q, Format::Eval);
        let mut cur = ct.clone();
        let mut cur_r = 0usize;
        for (&r, diag) in &self.diags {
            while cur_r < r {
                cur = ev.rotate(&cur, 1, keys);
                cur_r += 1;
            }
            let pt = enc.encode_with_scale(diag, level, delta);
            let mut tb = cur.b().clone();
            tb.mul_assign(pt.poly());
            acc_b.add_assign(&tb);
            let mut ta = cur.a().clone();
            ta.mul_assign(pt.poly());
            acc_a.add_assign(&ta);
            // Fused-MAC counting (one PMAC per limb per channel).
            opcount::count_ew(2 * level);
        }
        Ciphertext::new(acc_b, acc_a, ct.scale() * delta, level)
    }

    /// Baby-step giant-step evaluation with `n1` baby steps. Output scale is
    /// `ct.scale · Δ`; rescale afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a required rotation key is missing or `n1 == 0`.
    pub fn eval_bsgs(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        keys: &KeySet,
        n1: usize,
    ) -> Ciphertext {
        assert!(n1 >= 1, "need at least one baby step");
        let ctx = ev.context();
        let level = ct.level();
        let m = self.slots;
        let delta = ctx.params().scale();
        let basis_q = ctx.basis_q(level).to_vec();

        // Baby rotations, hoisted from a single decomposition.
        let hoisted = ev.key_switcher().decompose_mod_up(ct.a(), level);
        let mut baby: BTreeMap<usize, Ciphertext> = BTreeMap::new();
        let needed: BTreeSet<usize> = self.diags.keys().map(|&r| r % n1).collect();
        for b in needed {
            let c = if b == 0 {
                ct.clone()
            } else {
                ev.rotate_hoisted(ct, &hoisted, b as isize, keys)
            };
            baby.insert(b, c);
        }

        // Group diagonals by giant step.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &r in self.diags.keys() {
            groups.entry(r / n1 * n1).or_default().push(r);
        }

        let mut out: Option<Ciphertext> = None;
        for (&g_step, rs) in &groups {
            let mut inner_b = Poly::zero(&basis_q, Format::Eval);
            let mut inner_a = Poly::zero(&basis_q, Format::Eval);
            for &r in rs {
                let b = r - g_step;
                let diag = &self.diags[&r];
                // Pre-rotate by the giant step so the outer rotation lands
                // the plaintext correctly.
                let rotated: Vec<Complex> = (0..m).map(|j| diag[(j + m - g_step) % m]).collect();
                let pt = enc.encode_with_scale(&rotated, level, delta);
                let src = &baby[&b];
                let mut tb = src.b().clone();
                tb.mul_assign(pt.poly());
                inner_b.add_assign(&tb);
                let mut ta = src.a().clone();
                ta.mul_assign(pt.poly());
                inner_a.add_assign(&ta);
                opcount::count_ew(2 * level);
            }
            let inner = Ciphertext::new(inner_b, inner_a, ct.scale() * delta, level);
            let rotated = if g_step == 0 {
                inner
            } else {
                ev.rotate(&inner, g_step as isize, keys)
            };
            out = Some(match out {
                None => rotated,
                Some(acc) => ev.add(&acc, &rotated),
            });
        }
        out.unwrap_or_else(|| {
            Ciphertext::new(
                Poly::zero(&basis_q, Format::Eval),
                Poly::zero(&basis_q, Format::Eval),
                ct.scale() * delta,
                level,
            )
        })
    }
}

impl LinearTransform {
    /// BSGS with *double hoisting* (Bossuat et al. \[8\]; the exact flow of
    /// the paper's Fig. 5): the baby rotations' KeyMult outputs stay in the
    /// extended modulus `PQ`, the inner PMACs run on PQ-lifted plaintexts,
    /// and a **single ModDown per giant group** replaces the per-baby
    /// ModDowns of [`Self::eval_bsgs`]. This is precisely the reordering
    /// that inflates the element-wise share on GPUs (§IV-B) and that
    /// Anaheim then offloads to PIM.
    ///
    /// This is [`Self::prepare`] followed by [`PreparedTransform::eval`];
    /// callers that apply the same transform more than once should keep
    /// the prepared form instead.
    ///
    /// Output scale is `ct.scale · Δ`; rescale afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a required rotation key is missing or `n1 == 0`.
    pub fn eval_bsgs_double_hoisted(
        &self,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        keys: &KeySet,
        n1: usize,
    ) -> Ciphertext {
        self.prepare(enc, ct.level(), n1).eval(ev, ct, keys)
    }

    /// Encodes every diagonal once for double-hoisted BSGS at `level` with
    /// `n1` baby steps.
    ///
    /// Diagonal `r = g + b` (giant step `g`, a multiple of `n1`, and baby
    /// step `b < n1`) is stored as `σ_b(encode(diag_r ≫ r))`: pre-rotated by
    /// `r` so the PMAC can precede both rotations (§V-B), then permuted by
    /// the baby automorphism `σ_b` so that
    /// `σ_b(x · pt) = σ_b(x) · σ_b(pt)` lets [`PreparedTransform::eval`]
    /// permute each baby's operands once instead of every product. Both
    /// steps are exact, so the result is bit-identical to permuting every
    /// product. Plaintexts with `b ≠ 0` live over `Q‖P`, those with
    /// `b = 0` over `Q` only.
    ///
    /// # Panics
    ///
    /// Panics if `n1 == 0`, `level` is out of range, or the transform's slot
    /// count differs from the context's.
    pub fn prepare(&self, enc: &Encoder<'_>, level: usize, n1: usize) -> PreparedTransform {
        assert!(n1 >= 1, "need at least one baby step");
        let ctx = enc.context();
        let m = self.slots;
        assert_eq!(m, ctx.slots(), "transform/context slot mismatch");
        let scale = ctx.params().scale();
        let basis_q = ctx.basis_q(level);
        let basis_qp = ctx.basis_qp(level);
        let babies: Vec<usize> = self
            .diags
            .keys()
            .map(|&r| r % n1)
            .filter(|&b| b != 0)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut groups: Vec<PreparedGroup> = Vec::new();
        // Diagonals iterate in ascending order, so each giant group is one
        // contiguous run.
        for (&r, diag) in &self.diags {
            let giant = r / n1 * n1;
            let b = r - giant;
            if groups.last().is_none_or(|g| g.giant != giant) {
                groups.push(PreparedGroup {
                    giant,
                    base: None,
                    terms: Vec::new(),
                });
            }
            let group = groups.last_mut().expect("group pushed above");
            let rotated: Vec<Complex> = (0..m).map(|j| diag[(j + m - r) % m]).collect();
            let coeffs = enc.embed(&rotated, scale);
            if b == 0 {
                let mut pt = Poly::from_coeff_i64(basis_q, &coeffs);
                pt.to_eval();
                group.base = Some(pt);
            } else {
                let mut pt = Poly::from_coeff_i64(&basis_qp, &coeffs);
                pt.to_eval();
                let baby = babies.binary_search(&b).expect("baby collected above");
                let g = galois_for_rotation(ctx.n(), b as isize);
                group.terms.push((baby, pt.automorphism(g)));
            }
        }
        PreparedTransform {
            level,
            scale,
            babies,
            groups,
        }
    }
}

/// A [`LinearTransform`] encoded for double-hoisted BSGS at one level and
/// baby-step count (see [`LinearTransform::prepare`]).
#[derive(Debug, Clone)]
pub struct PreparedTransform {
    level: usize,
    /// The plaintext scale `Δ`.
    scale: f64,
    /// The distinct nonzero baby steps, ascending.
    babies: Vec<usize>,
    /// Giant groups, ascending by giant step.
    groups: Vec<PreparedGroup>,
}

/// One giant group of a [`PreparedTransform`].
#[derive(Debug, Clone)]
struct PreparedGroup {
    giant: usize,
    /// The `b = 0` plaintext over `Q`, if the group has that diagonal.
    base: Option<Poly>,
    /// `(index into babies, σ_b-permuted plaintext over Q‖P)`.
    terms: Vec<(usize, Poly)>,
}

impl PreparedTransform {
    /// Bytes held by the prepared plaintexts (8-byte residues).
    pub fn size_bytes(&self) -> usize {
        self.groups
            .iter()
            .flat_map(|g| g.base.iter().chain(g.terms.iter().map(|(_, pt)| pt)))
            .map(|pt| pt.num_limbs() * pt.n() * 8)
            .sum()
    }

    /// Double-hoisted BSGS evaluation: one shared ModUp; each baby's
    /// KeyMult pair and `ct.b` permuted once by `σ_b`; three fused PMACs per
    /// diagonal (`Q‖P` pair, `Q` channel reading the first `level` limbs of
    /// the same plaintext); one ModDown and one giant rotation per group.
    /// Output scale is `ct.scale · Δ`; rescale afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not at the prepared level or a required rotation
    /// key is missing.
    pub fn eval(&self, ev: &Evaluator<'_>, ct: &Ciphertext, keys: &KeySet) -> Ciphertext {
        let ctx = ev.context();
        let level = self.level;
        assert_eq!(ct.level(), level, "transform prepared for another level");
        let m = ctx.slots();
        let basis_q = ctx.basis_q(level);
        let basis_qp = ctx.basis_qp(level);
        let qp = basis_qp.len();
        let zero_q = || Poly::zero(basis_q, Format::Eval);

        // Baby KeyMults from one shared ModUp, kept in PQ, and `ct.b`, each
        // permuted by σ_b once.
        let babies: Vec<[Poly; 3]> = if self.babies.is_empty() {
            Vec::new()
        } else {
            let hoisted = ev.key_switcher().decompose_mod_up(ct.a(), level);
            self.babies
                .iter()
                .map(|&b| {
                    let evk = keys
                        .rotation(b as isize, m)
                        .unwrap_or_else(|| panic!("missing rotation key for distance {b}"));
                    let (kb, ka) = ev.key_switcher().key_mult(&hoisted, evk);
                    let g = galois_for_rotation(ctx.n(), b as isize);
                    opcount::count_automorphism(2 * qp + level);
                    [
                        kb.automorphism(g),
                        ka.automorphism(g),
                        ct.b().automorphism(g),
                    ]
                })
                .collect()
        };

        let mut out: Option<Ciphertext> = None;
        for group in &self.groups {
            let (mut ib, mut ia) = if group.terms.is_empty() {
                (zero_q(), zero_q())
            } else {
                let mut acc0 = Poly::zero(&basis_qp, Format::Eval);
                let mut acc1 = Poly::zero(&basis_qp, Format::Eval);
                let mut acc_b = zero_q();
                for (baby, pt) in &group.terms {
                    let [kb, ka, b] = &babies[*baby];
                    acc0.mac_assign(kb, pt);
                    acc1.mac_assign(ka, pt);
                    acc_b.mac_assign(b, pt);
                }
                // One fused PMAC per limb per channel.
                opcount::count_ew(group.terms.len() * (2 * qp + level));
                // Single hoisted ModDown for the whole giant group.
                opcount::count_keyswitch();
                let (mut ib, ia) = ev.key_switcher().mod_down_pair(&acc0, &acc1, level);
                ib.add_assign(&acc_b);
                opcount::count_ew(level);
                (ib, ia)
            };
            if let Some(pt) = &group.base {
                // No baby rotation: PMAC directly on the input pair.
                ib.mac_assign(ct.b(), pt);
                ia.mac_assign(ct.a(), pt);
                opcount::count_ew(2 * level);
            }
            let inner = Ciphertext::new(ib, ia, ct.scale() * self.scale, level);
            let rotated = if group.giant == 0 {
                inner
            } else {
                ev.rotate(&inner, group.giant as isize, keys)
            };
            out = Some(match out {
                None => rotated,
                Some(acc) => ev.add(&acc, &rotated),
            });
        }
        out.unwrap_or_else(|| Ciphertext::new(zero_q(), zero_q(), ct.scale() * self.scale, level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_error;
    use crate::context::CkksContext;
    use crate::keys::{KeyGenerator, KeySet};
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_transform(slots: usize, idxs: &[usize], rng: &mut StdRng) -> LinearTransform {
        let mut t = LinearTransform::new(slots);
        for &r in idxs {
            let diag: Vec<Complex> = (0..slots)
                .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
                .collect();
            t.set_diagonal(r, diag);
        }
        t
    }

    fn setup() -> (CkksContext, KeySet) {
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng = StdRng::seed_from_u64(31);
        let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[1, 2, 3, 4, 6, 8]);
        (ctx, keys)
    }

    fn encrypted_input<'a>(
        ctx: &'a CkksContext,
        keys: &KeySet,
    ) -> (Vec<Complex>, Ciphertext, Encoder<'a>) {
        let enc = Encoder::new(ctx);
        let m = ctx.slots();
        let mut rng = StdRng::seed_from_u64(32);
        let x: Vec<Complex> = (0..m)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let ct = keys
            .public
            .encrypt(&enc.encode(&x, ctx.max_level()), &mut rng);
        (x, ct, enc)
    }

    #[test]
    fn hoisted_matches_plain() {
        let (ctx, keys) = setup();
        let (x, ct, enc) = encrypted_input(&ctx, &keys);
        let ev = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(33);
        let t = random_transform(ctx.slots(), &[0, 1, 3], &mut rng);
        let want = t.apply_plain(&x);
        let y = ev.rescale(&t.eval_hoisted(&ev, &enc, &ct, &keys));
        let out = enc.decode(&keys.secret.decrypt(&y));
        let err = max_error(&want, &out);
        assert!(err < 1e-3, "hoisted lintrans error: {err}");
    }

    #[test]
    fn minks_matches_plain() {
        let (ctx, keys) = setup();
        let (x, ct, enc) = encrypted_input(&ctx, &keys);
        let ev = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(34);
        let t = random_transform(ctx.slots(), &[0, 1, 2, 3], &mut rng);
        let want = t.apply_plain(&x);
        let y = ev.rescale(&t.eval_minks(&ev, &enc, &ct, &keys));
        let out = enc.decode(&keys.secret.decrypt(&y));
        let err = max_error(&want, &out);
        assert!(err < 1e-3, "MinKS lintrans error: {err}");
    }

    #[test]
    fn bsgs_matches_plain() {
        let (ctx, keys) = setup();
        let (x, ct, enc) = encrypted_input(&ctx, &keys);
        let ev = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(35);
        let t = random_transform(ctx.slots(), &[0, 1, 2, 3, 4, 6], &mut rng);
        let want = t.apply_plain(&x);
        let y = ev.rescale(&t.eval_bsgs(&ev, &enc, &ct, &keys, 2));
        let out = enc.decode(&keys.secret.decrypt(&y));
        let err = max_error(&want, &out);
        assert!(err < 1e-3, "BSGS lintrans error: {err}");
    }

    #[test]
    fn all_styles_agree() {
        let (ctx, keys) = setup();
        let (_, ct, enc) = encrypted_input(&ctx, &keys);
        let ev = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(36);
        let t = random_transform(ctx.slots(), &[0, 1, 2], &mut rng);
        let a = enc.decode(
            &keys
                .secret
                .decrypt(&ev.rescale(&t.eval_hoisted(&ev, &enc, &ct, &keys))),
        );
        let b = enc.decode(
            &keys
                .secret
                .decrypt(&ev.rescale(&t.eval_minks(&ev, &enc, &ct, &keys))),
        );
        let c = enc.decode(
            &keys
                .secret
                .decrypt(&ev.rescale(&t.eval_bsgs(&ev, &enc, &ct, &keys, 2))),
        );
        assert!(max_error(&a, &b) < 1e-3);
        assert!(max_error(&a, &c) < 1e-3);
    }

    #[test]
    fn hoisting_reduces_ntt_count() {
        // The whole point of hoisting (Fig. 1 table): far fewer (I)NTTs.
        let (ctx, keys) = setup();
        let (_, ct, enc) = encrypted_input(&ctx, &keys);
        let ev = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(37);
        let t = random_transform(ctx.slots(), &[0, 1, 2, 3, 4], &mut rng);

        crate::opcount::reset();
        let _ = t.eval_hoisted(&ev, &enc, &ct, &keys);
        let hoist = crate::opcount::snapshot();

        crate::opcount::reset();
        let _ = t.eval_minks(&ev, &enc, &ct, &keys);
        let minks = crate::opcount::snapshot();

        assert!(
            hoist.keyswitches < minks.keyswitches,
            "hoisting must use fewer ModDowns: {} vs {}",
            hoist.keyswitches,
            minks.keyswitches
        );
        assert!(
            hoist.intt_limbs < minks.intt_limbs,
            "hoisting must reduce INTT work"
        );
        assert!(
            hoist.ew_limb_ops as f64 / hoist.total_ntt_limbs() as f64
                > minks.ew_limb_ops as f64 / minks.total_ntt_limbs() as f64,
            "hoisting shifts the mix toward element-wise ops (the §IV-B effect)"
        );
    }

    #[test]
    fn from_matrix_roundtrip() {
        let slots = 8;
        let mut rng = StdRng::seed_from_u64(38);
        let m: Vec<Vec<Complex>> = (0..slots)
            .map(|_| {
                (0..slots)
                    .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
                    .collect()
            })
            .collect();
        let t = LinearTransform::from_matrix(slots, &m);
        let x: Vec<Complex> = (0..slots).map(|i| Complex::new(i as f64, 0.5)).collect();
        let via_diag = t.apply_plain(&x);
        let direct: Vec<Complex> = (0..slots)
            .map(|j| {
                let mut acc = Complex::ZERO;
                for k in 0..slots {
                    acc += m[j][k] * x[k];
                }
                acc
            })
            .collect();
        assert!(max_error(&via_diag, &direct) < 1e-9);
    }

    /// The per-diagonal, aut-last double-hoisted BSGS loop the prepared
    /// path replaced: every diagonal encoded on the spot, every product
    /// permuted by its baby automorphism. Kept as the bit-exact oracle.
    fn oracle_bsgs_double_hoisted(
        t: &LinearTransform,
        ev: &Evaluator<'_>,
        enc: &Encoder<'_>,
        ct: &Ciphertext,
        keys: &KeySet,
        n1: usize,
    ) -> Ciphertext {
        let ctx = ev.context();
        let level = ct.level();
        let m = t.slots;
        let delta = ctx.params().scale();
        let basis_q = ctx.basis_q(level);
        let basis_qp = ctx.basis_qp(level);
        let hoisted = ev.key_switcher().decompose_mod_up(ct.a(), level);
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &r in t.diags.keys() {
            groups.entry(r / n1 * n1).or_default().push(r);
        }
        let mut out: Option<Ciphertext> = None;
        for (&g_step, rs) in &groups {
            let mut acc0 = Poly::zero(&basis_qp, Format::Eval);
            let mut acc1 = Poly::zero(&basis_qp, Format::Eval);
            let mut acc_b = Poly::zero(basis_q, Format::Eval);
            let mut acc_a0 = Poly::zero(basis_q, Format::Eval);
            let mut any_pq = false;
            for &r in rs {
                let b = r - g_step;
                let diag = &t.diags[&r];
                let rotated: Vec<Complex> = (0..m).map(|j| diag[(j + m - r) % m]).collect();
                let coeffs = enc.embed(&rotated, delta);
                if b == 0 {
                    let mut pt = Poly::from_coeff_i64(basis_q, &coeffs);
                    pt.to_eval();
                    acc_b.add_assign(&ct.b().multiplied(&pt));
                    acc_a0.add_assign(&ct.a().multiplied(&pt));
                    continue;
                }
                any_pq = true;
                let evk = keys.rotation(b as isize, m).expect("rotation key");
                let (kb, ka) = ev.key_switcher().key_mult(&hoisted, evk);
                let g = galois_for_rotation(ctx.n(), b as isize);
                let mut pt_pq = Poly::from_coeff_i64(&basis_qp, &coeffs);
                pt_pq.to_eval();
                let mut pt_q = pt_pq.duplicate();
                pt_q.truncate_limbs(level);
                acc0.add_assign(&kb.multiplied(&pt_pq).automorphism(g));
                acc1.add_assign(&ka.multiplied(&pt_pq).automorphism(g));
                acc_b.add_assign(&ct.b().multiplied(&pt_q).automorphism(g));
            }
            let (mut ib, mut ia) = if any_pq {
                ev.key_switcher().mod_down_pair(&acc0, &acc1, level)
            } else {
                (
                    Poly::zero(basis_q, Format::Eval),
                    Poly::zero(basis_q, Format::Eval),
                )
            };
            ib.add_assign(&acc_b);
            ia.add_assign(&acc_a0);
            let inner = Ciphertext::new(ib, ia, ct.scale() * delta, level);
            let rotated = if g_step == 0 {
                inner
            } else {
                ev.rotate(&inner, g_step as isize, keys)
            };
            out = Some(match out {
                None => rotated,
                Some(acc) => ev.add(&acc, &rotated),
            });
        }
        out.expect("at least one diagonal")
    }

    fn limbs(ct: &Ciphertext) -> Vec<Vec<u64>> {
        ct.b()
            .limbs()
            .chain(ct.a().limbs())
            .map(|l| l.data().to_vec())
            .collect()
    }

    /// A small ring with a rotation key for every distance, so any
    /// diagonal set and baby-step count can be evaluated.
    fn oracle_fixture() -> &'static (CkksContext, KeySet) {
        static FIX: std::sync::OnceLock<(CkksContext, KeySet)> = std::sync::OnceLock::new();
        FIX.get_or_init(|| {
            let ctx = CkksContext::new(
                CkksParams::builder()
                    .log_n(8)
                    .levels(4)
                    .alpha(2)
                    .scale_bits(40)
                    .build(),
            );
            let mut rng = StdRng::seed_from_u64(42);
            let rots: Vec<isize> = (1..ctx.slots() as isize).collect();
            let keys = KeyGenerator::new(&ctx, &mut rng).generate(&rots);
            (ctx, keys)
        })
    }

    /// Prepared evaluation against the oracle, bit for bit.
    fn assert_prepared_matches_oracle(idxs: &[usize], n1: usize, level: usize, seed: u64) {
        let (ctx, keys) = oracle_fixture();
        let enc = Encoder::new(ctx);
        let ev = Evaluator::new(ctx);
        let mut rng = StdRng::seed_from_u64(seed);
        let t = random_transform(ctx.slots(), idxs, &mut rng);
        let x: Vec<Complex> = (0..ctx.slots())
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let ct = keys
            .public
            .encrypt(&enc.encode(&x, ctx.max_level()), &mut rng);
        let ct = ev.mod_switch_to(&ct, level);
        let got = t.prepare(&enc, level, n1).eval(&ev, &ct, keys);
        let want = oracle_bsgs_double_hoisted(&t, &ev, &enc, &ct, keys, n1);
        assert_eq!(got.level(), want.level());
        assert_eq!(got.scale().to_bits(), want.scale().to_bits());
        assert!(
            limbs(&got) == limbs(&want),
            "prepared BSGS differs from the oracle: diagonals {idxs:?}, n1 {n1}, level {level}"
        );
    }

    #[test]
    fn prepared_matches_oracle_on_groups_without_a_base_diagonal() {
        // n1 = 8: group 0 holds babies 3 and 5 only, group 16 holds 17 only.
        assert_prepared_matches_oracle(&[3, 5, 17], 8, 4, 1);
        // One diagonal per giant group, each the group's base (b = 0).
        assert_prepared_matches_oracle(&[0, 8, 40], 8, 2, 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn prepared_eval_is_bit_identical_to_the_oracle(
            raw in proptest::collection::vec(0usize..128, 1..7),
            n1_pick in 0usize..4,
            level in 1usize..5,
            seed in 0u64..(1u64 << 32),
        ) {
            let slots = oracle_fixture().0.slots();
            let mut idxs = raw;
            idxs.sort_unstable();
            idxs.dedup();
            let n1 = [1, 2, 8, slots][n1_pick];
            assert_prepared_matches_oracle(&idxs, n1, level, seed);
        }
    }

    #[test]
    fn double_hoisted_bsgs_matches_plain() {
        let (ctx, keys) = setup();
        let (x, ct, enc) = encrypted_input(&ctx, &keys);
        let ev = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(39);
        let t = random_transform(ctx.slots(), &[0, 1, 2, 3, 4, 6], &mut rng);
        let want = t.apply_plain(&x);
        let y = ev.rescale(&t.eval_bsgs_double_hoisted(&ev, &enc, &ct, &keys, 2));
        let out = enc.decode(&keys.secret.decrypt(&y));
        let err = max_error(&want, &out);
        assert!(err < 1e-3, "double-hoisted BSGS error: {err}");
    }

    #[test]
    fn double_hoisting_cuts_moddowns() {
        // One ModDown per giant group instead of one per baby rotation —
        // and correspondingly more element-wise work in the extended
        // modulus (the §IV-B shift Anaheim exploits).
        // Double hoisting pays one ModDown per *giant group* instead of
        // one per baby rotation, so it wins when K > n1² (many babies per
        // group): K = 16 diagonals with n1 = 8.
        let ctx = CkksContext::new(CkksParams::test_small());
        let mut rng0 = StdRng::seed_from_u64(41);
        let rots: Vec<isize> = (1..=8).collect();
        let keys = KeyGenerator::new(&ctx, &mut rng0).generate(&rots);
        let (_, ct, enc) = encrypted_input(&ctx, &keys);
        let ev = Evaluator::new(&ctx);
        let mut rng = StdRng::seed_from_u64(40);
        let idxs: Vec<usize> = (0..16).collect();
        let t = random_transform(ctx.slots(), &idxs, &mut rng);

        crate::opcount::reset();
        let _ = t.eval_bsgs(&ev, &enc, &ct, &keys, 8);
        let single = crate::opcount::snapshot();
        crate::opcount::reset();
        let _ = t.eval_bsgs_double_hoisted(&ev, &enc, &ct, &keys, 8);
        let double = crate::opcount::snapshot();

        assert!(
            double.keyswitches < single.keyswitches,
            "double hoisting must reduce ModDowns: {} vs {}",
            double.keyswitches,
            single.keyswitches
        );
        let shift_single = single.ew_limb_ops as f64 / single.total_ntt_limbs() as f64;
        let shift_double = double.ew_limb_ops as f64 / double.total_ntt_limbs() as f64;
        assert!(
            shift_double > shift_single,
            "double hoisting shifts the mix toward element-wise ops"
        );
    }

    #[test]
    fn required_rotations_reported() {
        let mut t = LinearTransform::new(16);
        t.set_diagonal(0, vec![Complex::ONE; 16]);
        t.set_diagonal(3, vec![Complex::ONE; 16]);
        t.set_diagonal(5, vec![Complex::ONE; 16]);
        assert_eq!(t.required_rotations(), vec![3, 5]);
        let bsgs = t.required_rotations_bsgs(2);
        assert!(bsgs.contains(&1)); // baby
        assert!(bsgs.contains(&2)); // giant of 3
        assert!(bsgs.contains(&4)); // giant of 5
    }
}
