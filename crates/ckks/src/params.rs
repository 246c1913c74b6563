//! CKKS parameter sets.
//!
//! Mirrors Table IV of the paper: ring degree `N`, modulus chain length `L`,
//! auxiliary modulus size `α` (number of `P` primes), decomposition number
//! `D = ⌈L/α⌉` [Han–Ki], scaling factor `Δ`, and secret Hamming weights.
//!
//! Two kinds of parameter sets exist in this reproduction:
//!
//! - *numeric* sets (small `N`) instantiated into a [`crate::context::CkksContext`]
//!   for functional evaluation and tests, and
//! - the *paper* set (`N = 2^16`, `L ≤ 54`, `α ≤ 14`, `D = 4`), which is used
//!   by the performance model in `anaheim-core` (it never needs numeric NTT
//!   tables of that size).

/// Parameters of a CKKS instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    /// log2 of the ring degree `N`.
    pub log_n: u32,
    /// Number of rescaling levels: the modulus chain is `q_0, …, q_L`
    /// (`L+1` primes), supporting `L` rescales.
    pub levels: usize,
    /// Number of auxiliary primes `P_i` (α in the paper).
    pub alpha: usize,
    /// log2 of the scaling factor Δ; rescale primes are chosen near `2^scale_bits`.
    pub scale_bits: u32,
    /// log2 of the base prime `q_0` (must exceed `scale_bits` for decryption
    /// headroom).
    pub q0_bits: u32,
    /// log2 size of the auxiliary primes.
    pub p_bits: u32,
    /// Hamming weight of the (dense) secret key.
    pub hamming_weight: usize,
    /// Standard deviation of the error distribution.
    pub sigma: f64,
}

impl CkksParams {
    /// Starts a builder with sane defaults (`q0_bits = 60`, `p_bits = 60`,
    /// `σ = 3.2`, dense secret `H = 128` capped to `N/4`).
    pub fn builder() -> CkksParamsBuilder {
        CkksParamsBuilder::default()
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Number of message slots `N/2`.
    pub fn slots(&self) -> usize {
        self.n() / 2
    }

    /// Total number of `Q` primes (`levels + 1`).
    pub fn q_count(&self) -> usize {
        self.levels + 1
    }

    /// The decomposition number `D = ⌈(levels+1)/α⌉` (Table I).
    pub fn decomposition_number(&self) -> usize {
        self.q_count().div_ceil(self.alpha)
    }

    /// The scaling factor Δ.
    pub fn scale(&self) -> f64 {
        (self.scale_bits as f64).exp2()
    }

    /// Total modulus bits `log2(PQ)` (upper bound), the quantity constrained
    /// by the 128-bit security requirement (`log PQ < 1623` for `N = 2^16`).
    pub fn log_pq(&self) -> u32 {
        self.q0_bits + self.levels as u32 * self.scale_bits + self.alpha as u32 * self.p_bits
    }

    /// A small functional test set: `N = 2^10`, 4 levels, α = 2.
    pub fn test_small() -> Self {
        Self::builder()
            .log_n(10)
            .levels(4)
            .alpha(2)
            .scale_bits(40)
            .build()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any constraint is violated (see source for the list).
    pub fn validate(&self) {
        assert!(
            (4..=17).contains(&self.log_n),
            "log_n out of supported range"
        );
        assert!(self.levels >= 1, "at least one level required");
        assert!(self.alpha >= 1, "alpha must be positive");
        assert!(
            (20..=60).contains(&self.scale_bits),
            "scale_bits out of range"
        );
        assert!(
            self.q0_bits > self.scale_bits,
            "q0 must exceed the scaling factor for decryption headroom"
        );
        assert!(self.p_bits >= self.scale_bits, "P primes must cover digits");
        assert!(
            self.hamming_weight <= self.n() / 2,
            "hamming weight too large"
        );
    }
}

/// Builder for [`CkksParams`].
#[derive(Debug, Clone)]
pub struct CkksParamsBuilder {
    log_n: u32,
    levels: usize,
    alpha: usize,
    scale_bits: u32,
    q0_bits: u32,
    p_bits: u32,
    hamming_weight: Option<usize>,
    sigma: f64,
}

impl Default for CkksParamsBuilder {
    fn default() -> Self {
        Self {
            log_n: 10,
            levels: 4,
            alpha: 2,
            scale_bits: 40,
            q0_bits: 60,
            p_bits: 60,
            hamming_weight: None,
            sigma: 3.2,
        }
    }
}

impl CkksParamsBuilder {
    /// Sets log2 of the ring degree.
    pub fn log_n(mut self, v: u32) -> Self {
        self.log_n = v;
        self
    }

    /// Sets the number of rescaling levels.
    pub fn levels(mut self, v: usize) -> Self {
        self.levels = v;
        self
    }

    /// Sets the number of auxiliary primes α.
    pub fn alpha(mut self, v: usize) -> Self {
        self.alpha = v;
        self
    }

    /// Sets log2 of the scaling factor.
    pub fn scale_bits(mut self, v: u32) -> Self {
        self.scale_bits = v;
        self
    }

    /// Sets log2 of the base prime.
    pub fn q0_bits(mut self, v: u32) -> Self {
        self.q0_bits = v;
        self
    }

    /// Sets log2 of the auxiliary primes.
    pub fn p_bits(mut self, v: u32) -> Self {
        self.p_bits = v;
        self
    }

    /// Sets the secret-key Hamming weight.
    pub fn hamming_weight(mut self, v: usize) -> Self {
        self.hamming_weight = Some(v);
        self
    }

    /// Sets the error standard deviation.
    pub fn sigma(mut self, v: f64) -> Self {
        self.sigma = v;
        self
    }

    /// Finalizes and validates the parameter set.
    ///
    /// # Panics
    ///
    /// Panics if the resulting parameters are inconsistent
    /// (see [`CkksParams::validate`]).
    pub fn build(self) -> CkksParams {
        let n = 1usize << self.log_n;
        let params = CkksParams {
            log_n: self.log_n,
            levels: self.levels,
            alpha: self.alpha,
            scale_bits: self.scale_bits,
            q0_bits: self.q0_bits,
            p_bits: self.p_bits,
            hamming_weight: self.hamming_weight.unwrap_or_else(|| 128.min(n / 4)),
            sigma: self.sigma,
        };
        params.validate();
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let p = CkksParams::test_small();
        assert_eq!(p.n(), 1024);
        assert_eq!(p.slots(), 512);
        assert_eq!(p.q_count(), 5);
        assert_eq!(p.decomposition_number(), 3); // ceil(5/2)
        assert_eq!(p.scale(), (2f64).powi(40));
    }

    #[test]
    fn paper_decomposition_number() {
        // Paper default: D = 4 with L+1 limbs grouped by alpha.
        let p = CkksParams::builder()
            .log_n(15)
            .levels(31)
            .alpha(8)
            .scale_bits(40)
            .hamming_weight(64)
            .build();
        assert_eq!(p.decomposition_number(), 4);
    }

    #[test]
    fn log_pq_accounting() {
        let p = CkksParams::test_small();
        assert_eq!(p.log_pq(), 60 + 4 * 40 + 2 * 60);
    }

    #[test]
    #[should_panic(expected = "q0 must exceed")]
    fn invalid_q0_rejected() {
        CkksParams::builder().q0_bits(30).scale_bits(40).build();
    }

    #[test]
    #[should_panic(expected = "hamming weight too large")]
    fn oversized_hamming_weight_rejected() {
        CkksParams::builder().log_n(4).hamming_weight(1000).build();
    }
}
