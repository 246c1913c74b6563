//! Prime-field arithmetic modulo a word-sized prime.
//!
//! All CKKS limb arithmetic happens in `Z_q` for NTT-friendly primes
//! `q ≡ 1 (mod 2N)`. [`Modulus`] bundles a prime with the precomputed
//! constants used by Barrett and Shoup reductions so that the hot paths
//! (NTT butterflies, element-wise multiply-accumulate) avoid 128-bit
//! division.

/// A prime modulus `q < 2^62` with precomputed reduction constants.
///
/// # Example
///
/// ```
/// use ckks_math::modulus::Modulus;
/// let q = Modulus::new(1152921504606845473); // some 60-bit prime
/// let a = q.mul(3, 5);
/// assert_eq!(a, 15);
/// assert_eq!(q.mul(q.value() - 1, q.value() - 1), 1); // (-1)^2 = 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// Barrett constant: `floor(2^128 / q)` split into (hi, lo) 64-bit words.
    barrett_hi: u64,
    barrett_lo: u64,
}

impl Modulus {
    /// Creates a modulus context.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62`. The headroom is what the NTT's lazy
    /// reductions need: forward butterflies carry values in `[0, 4q)`, which
    /// must fit a `u64`, and basis conversion sums 15 products of two
    /// residues in one `u128` before it reduces.
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2");
        assert!(q < (1u64 << 62), "modulus must be below 2^62");
        // floor(2^128 / q) computed via 128-bit long division in two steps.
        let hi = u128::MAX / q as u128; // floor((2^128 - 1) / q)
                                        // (2^128 - 1) = q * hi + rem; floor(2^128/q) = hi unless rem == q-1,
                                        // in which case it is hi + 1.
        let rem = u128::MAX - hi * q as u128;
        let floor_2_128 = if rem == (q as u128 - 1) { hi + 1 } else { hi };
        Self {
            q,
            barrett_hi: (floor_2_128 >> 64) as u64,
            barrett_lo: floor_2_128 as u64,
        }
    }

    /// The prime value.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.q
    }

    /// Number of significant bits of `q`.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        a % self.q
    }

    /// Reduces any `u128` into `[0, q)` with Barrett reduction.
    #[inline]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        // Estimate quotient: qhat = floor(a * floor(2^128/q) / 2^128).
        // Only the high 128 bits of the 256-bit product are needed.
        let a_lo = a as u64;
        let a_hi = (a >> 64) as u64;
        // a * barrett = (a_hi*2^64 + a_lo) * (b_hi*2^64 + b_lo)
        let lo_lo = (a_lo as u128) * (self.barrett_lo as u128);
        let lo_hi = (a_lo as u128) * (self.barrett_hi as u128);
        let hi_lo = (a_hi as u128) * (self.barrett_lo as u128);
        let hi_hi = (a_hi as u128) * (self.barrett_hi as u128);
        // lo_hi < 2^127 (b_hi ≤ 2^63), but hi_lo nears 2^128
        // when a does, so the middle sum can carry into bit 128.
        let (mid, carry) = (lo_hi + (lo_lo >> 64)).overflowing_add(hi_lo);
        let qhat = hi_hi + (mid >> 64) + ((carry as u128) << 64);
        let mut r = (a - qhat * self.q as u128) as u64;
        // Keep the loop: it almost never iterates, so it predicts well. Two
        // `sub_if_ge` selects in its place made `Poly::mac_assign` slower
        // (about 275 → 315 µs per 2^16 limb on a 2-vCPU Xeon), and a
        // branch-free body is what lets LLVM vectorize a MAC loop into
        // `pmuludq` emulation of the 128-bit products (see the `ntt` module
        // doc).
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Modular addition of values already in `[0, q)`.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction of values already in `[0, q)`.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation of a value already in `[0, q)`.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication of values already in `[0, q)`.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add `a*b + c mod q`.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q && c < self.q);
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Precomputes the Shoup companion word `floor(b * 2^64 / q)` for a fixed
    /// multiplicand `b`, enabling division-free [`Self::mul_shoup`].
    #[inline]
    pub fn shoup(&self, b: u64) -> u64 {
        debug_assert!(b < self.q);
        (((b as u128) << 64) / self.q as u128) as u64
    }

    /// Multiplication by a fixed operand with its Shoup precomputation,
    /// reduced into `[0, q)`. Accepts any `a`, like [`Self::mul_shoup_lazy`].
    ///
    /// `b_shoup` must be `self.shoup(b)`.
    #[inline]
    pub fn mul_shoup(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        sub_if_ge(self.mul_shoup_lazy(a, b, b_shoup), self.q)
    }

    /// Lazy Shoup multiplication: `a·b mod q` as a value in `[0, 2q)`, for
    /// any `a < 2^64` (Harvey 2014). With `β = 2^64` and
    /// `b_shoup = ⌊bβ/q⌋`, the remainder `a·b − ⌊a·b_shoup/β⌋·q` lies in
    /// `[0, q + a·q/β)`, so the wrapping arithmetic below is exact.
    ///
    /// `b_shoup` must be `self.shoup(b)`.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        debug_assert!(b < self.q);
        let quo = ((a as u128 * b_shoup as u128) >> 64) as u64;
        a.wrapping_mul(b).wrapping_sub(quo.wrapping_mul(self.q))
    }

    /// Modular exponentiation `a^e mod q` by square-and-multiply.
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (`q` must be prime).
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod q)`, which has no inverse.
    pub fn inv(&self, a: u64) -> u64 {
        let a = self.reduce(a);
        assert!(a != 0, "zero has no modular inverse");
        self.pow(a, self.q - 2)
    }

    /// Maps a signed value to its representative in `[0, q)`.
    #[inline]
    pub fn from_i64(&self, v: i64) -> u64 {
        let r = v.rem_euclid(self.q as i64);
        r as u64
    }

    /// Maps a residue to its centered representative in `(-q/2, q/2]`.
    #[inline]
    pub fn to_centered(&self, a: u64) -> i64 {
        debug_assert!(a < self.q);
        if a > self.q / 2 {
            a as i64 - self.q as i64
        } else {
            a as i64
        }
    }
}

/// `a − m` when `a ≥ m`, else `a`, written as a `min` so it compiles to a
/// compare and a select instead of a branch on the data.
#[inline(always)]
pub(crate) fn sub_if_ge(a: u64, m: u64) -> u64 {
    a.min(a.wrapping_sub(m))
}

impl std::fmt::Display for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Z_{}", self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q60() -> Modulus {
        // 60-bit NTT-friendly prime for N = 2^16.
        Modulus::new(crate::prime::generate_ntt_primes(60, 1, 1 << 17)[0])
    }

    #[test]
    fn add_sub_roundtrip() {
        let m = q60();
        let q = m.value();
        for (a, b) in [(0, 0), (1, q - 1), (q - 1, q - 1), (q / 2, q / 2 + 1)] {
            let s = m.add(a, b);
            assert_eq!(m.sub(s, b), a);
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let m = q60();
        let q = m.value();
        let cases = [
            (0, 5),
            (q - 1, q - 1),
            (q / 2, 3),
            (123456789, 987654321),
            (q - 2, q / 3),
        ];
        for (a, b) in cases {
            let want = ((a as u128 * b as u128) % q as u128) as u64;
            assert_eq!(m.mul(a, b), want);
        }
    }

    #[test]
    fn shoup_matches_mul() {
        let m = q60();
        let q = m.value();
        for b in [1u64, 2, q - 1, q / 7, 0x1234_5678_9abc] {
            let bs = m.shoup(b);
            for a in [0u64, 1, q - 1, q / 3, 42] {
                assert_eq!(m.mul_shoup(a, b, bs), m.mul(a, b));
            }
        }
    }

    /// The largest modulus the lazy kernels accept: a 62-bit NTT prime for
    /// 2n = 2^17.
    fn q62() -> Modulus {
        Modulus::new(crate::prime::generate_ntt_primes(62, 1, 1 << 17)[0])
    }

    #[test]
    fn lazy_shoup_at_range_limits() {
        for m in [q62(), q60(), Modulus::new(268369921)] {
            let q = m.value();
            for b in [0u64, 1, 2, q / 2, q - 2, q - 1] {
                let bs = m.shoup(b);
                for a in [0u64, 1, q - 1, q, 2 * q - 1, 4 * q - 1, u64::MAX] {
                    let want = ((a as u128 * b as u128) % q as u128) as u64;
                    let lazy = m.mul_shoup_lazy(a, b, bs);
                    assert!(lazy < 2 * q, "lazy {lazy} out of [0, 2q) for a={a} b={b}");
                    assert_eq!(lazy % q, want, "lazy a={a} b={b} q={q}");
                    assert_eq!(m.mul_shoup(a, b, bs), want, "full a={a} b={b} q={q}");
                }
            }
        }
    }

    #[test]
    fn barrett_accepts_the_full_u128_range() {
        for m in [q62(), q60(), Modulus::new(268369921), Modulus::new(3)] {
            let q = m.value() as u128;
            let top = (q - 1) * (q - 1);
            for a in [0, q - 1, top, 15 * top + q - 1, u128::MAX - 1, u128::MAX] {
                assert_eq!(m.reduce_u128(a) as u128, a % q, "a={a} q={q}");
            }
        }
    }

    #[test]
    fn pow_and_inv() {
        let m = q60();
        for a in [2u64, 3, 12345, m.value() - 1] {
            let inv = m.inv(a);
            assert_eq!(m.mul(a, inv), 1);
        }
        assert_eq!(m.pow(2, 10), 1024);
    }

    #[test]
    fn centered_representatives() {
        let m = Modulus::new(17);
        assert_eq!(m.to_centered(0), 0);
        assert_eq!(m.to_centered(8), 8);
        assert_eq!(m.to_centered(9), -8);
        assert_eq!(m.to_centered(16), -1);
        assert_eq!(m.from_i64(-1), 16);
        assert_eq!(m.from_i64(-17), 0);
    }

    #[test]
    fn small_modulus_supported() {
        // The PIM functional model uses 28-bit primes.
        let m = Modulus::new(268369921); // 28-bit prime, 1 mod 2^15
        assert_eq!(m.mul(m.value() - 1, 2), m.value() - 2);
    }

    #[test]
    #[should_panic(expected = "zero has no modular inverse")]
    fn inv_of_zero_panics() {
        q60().inv(0);
    }
}
