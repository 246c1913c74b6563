//! Cost-model-driven parallelism tuner: decides, per call site, whether a
//! limb/digit/bank batch should run serially or fan out to the
//! [`parpool`] pool — and with how many fused chunk jobs.
//!
//! # Why a cost model instead of static gates
//!
//! The hot path used to gate fan-out on two constants (`EW_MIN_ELEMS`,
//! `NTT_MIN_N`). Those neither adapt to the thread count nor to the op
//! class, and on hosts that grant little real parallelism (contended
//! containers, cgroup-limited CI) they made the *small-ring* regime slower
//! with more threads: waking the pool costs ~10 µs, which swamps a 5-limb
//! n=1024 element-wise pass. The tuner replaces the constants with an
//! explicit model:
//!
//! ```text
//! serial_ns   = items · unit_work(class, elems_per_item) · per_elem_ns(class)
//! jobs        = min(items, threads)
//! speedup_cap = min(jobs, par_eff)            // par_eff: measured ceiling
//! parallel_ns = serial_ns / speedup_cap + dispatch_ns + jobs · job_ns
//! parallel  ⟺  speedup_cap > 1  ∧  serial_ns > parallel_ns · min_gain
//! ```
//!
//! `unit_work` is `elems_per_item` for element-wise classes and
//! `elems_per_item · log2(elems_per_item)` for NTT-shaped work. The chosen
//! chunking factor (`jobs`) fuses the per-item fan-out into at most
//! `threads` pool jobs ([`parpool::run_chunked`]), so pool overhead is paid
//! per *chunk*, not per limb.
//!
//! # Profiles
//!
//! All model constants live in a [`Profile`]:
//!
//! - [`Profile::default_seeded`] — measured defaults (seeded from
//!   `BENCH_ckks.json` runs), with `par_eff` taken from
//!   `available_parallelism()`. On a 1-CPU host this resolves to *serial
//!   everywhere*, which is exactly right.
//! - `ANAHEIM_PAR_PROFILE=<file>` — loads a calibrated profile emitted by
//!   `bench_json --tune-out` (see `scripts/bench.sh`), making the tuner
//!   bench-driven end to end.
//! - [`set_profile`] / [`reset_profile`] — runtime override, used by the
//!   calibration pass and by tests ([`Profile::serial`],
//!   [`Profile::max_parallel`] pin decisions independent of the host).
//!
//! # Determinism
//!
//! A decision only selects *how* work is scheduled, never what is computed:
//! chunked fan-out visits indices in serial order within disjoint chunks,
//! so results and op counts are bit-identical across thread counts and
//! profiles (`tests/parallel_equivalence.rs` sweeps both).

use std::sync::{Arc, OnceLock, RwLock};

/// The work classes the cost model distinguishes. Each class has its own
/// per-element cost; NTT-shaped work additionally scales with
/// `log2(elems)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Modular add/sub/mul/MAC passes over residues (one table lookup +
    /// one or two multiplies per element).
    Elementwise,
    /// Forward/inverse negacyclic NTT batches (`n log2 n` butterflies per
    /// limb) and NTT-dominated composites (ModUp digits, ModDown, rescale).
    Ntt,
    /// Basis-conversion accumulations (`u128` MAC per source×target limb
    /// product).
    BConv,
    /// Galois permutation-table gathers.
    Automorphism,
}

impl OpClass {
    /// All classes, in profile-file order.
    pub const ALL: [OpClass; 4] = [
        OpClass::Elementwise,
        OpClass::Ntt,
        OpClass::BConv,
        OpClass::Automorphism,
    ];

    /// The profile-file key stem for this class.
    pub fn key(self) -> &'static str {
        match self {
            OpClass::Elementwise => "elementwise",
            OpClass::Ntt => "ntt",
            OpClass::BConv => "bconv",
            OpClass::Automorphism => "automorphism",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::Elementwise => 0,
            OpClass::Ntt => 1,
            OpClass::BConv => 2,
            OpClass::Automorphism => 3,
        }
    }

    /// Serial work units of one item: raw elements for element-wise
    /// classes, `elems · log2(elems)` for NTT-shaped work.
    fn unit_work(self, elems_per_item: usize) -> f64 {
        let e = elems_per_item as f64;
        match self {
            OpClass::Ntt => e * (e.max(2.0)).log2(),
            _ => e,
        }
    }
}

/// A fan-out decision: `jobs <= 1` means run the plain serial loop;
/// `jobs >= 2` means fuse the batch into `jobs` chunked pool tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Number of fused pool jobs to submit (1 = serial).
    pub jobs: usize,
}

impl Decision {
    /// Serial execution.
    pub const SERIAL: Decision = Decision { jobs: 1 };

    /// True when the batch should fan out to the pool.
    #[inline]
    pub fn parallel(self) -> bool {
        self.jobs >= 2
    }
}

/// All constants of the parallelism cost model. See the module docs for the
/// model itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Measured effective-parallelism ceiling of the host (a 2-thread spin
    /// calibration; ~1.0 on a contended or 1-CPU host). Caps the modeled
    /// speedup regardless of the requested thread count.
    pub par_eff: f64,
    /// Fixed cost of publishing one pool job batch (lock + wake), ns.
    pub dispatch_ns: f64,
    /// Marginal cost per fused chunk job (claim + join share), ns.
    pub job_ns: f64,
    /// Required modeled speedup before fanning out (safety margin against
    /// model error; 1.15 = demand a predicted 15 % win).
    pub min_gain: f64,
    /// Per-class serial cost per work unit, ns (indexed by the op class's
    /// position in [`OpClass::ALL`]).
    pub per_elem_ns: [f64; 4],
}

impl Profile {
    /// Measured defaults: per-class costs seeded from `BENCH_ckks.json`
    /// microbenchmarks, `par_eff` from the parallelism the OS reports.
    /// `bench_json --tune-out` replaces all of it with calibrated values.
    pub fn default_seeded() -> Self {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            par_eff: hw as f64,
            dispatch_ns: 10_000.0,
            job_ns: 2_000.0,
            min_gain: 1.15,
            // [elementwise, ntt, bconv, automorphism]. The NTT and BConv
            // costs are the committed `BENCH_tune.profile` calibration of
            // the lazy-reduction kernels, about 4× and 2× below the fully
            // reducing kernels they replaced.
            per_elem_ns: [0.9, 0.95, 1.3, 0.5],
        }
    }

    /// A profile that forces every decision to serial (par_eff = 1).
    /// Used by tests and as the degenerate calibration result.
    pub fn serial() -> Self {
        Self {
            par_eff: 1.0,
            ..Self::default_seeded()
        }
    }

    /// A profile that fans out every batch of ≥ 2 items regardless of
    /// size: zero modeled overhead, unbounded parallelism. Only useful to
    /// exercise the parallel code paths deterministically in tests.
    pub fn max_parallel() -> Self {
        Self {
            par_eff: f64::INFINITY,
            dispatch_ns: 0.0,
            job_ns: 0.0,
            min_gain: 1.0,
            per_elem_ns: [1.0; 4],
        }
    }

    /// Parses the `key = value` profile format written by
    /// [`Profile::to_profile_string`] (and `bench_json --tune-out`).
    /// Unknown keys and malformed values are errors; missing keys keep
    /// their seeded defaults.
    pub fn from_profile_str(s: &str) -> Result<Self, String> {
        let mut p = Self::default_seeded();
        for (lineno, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let key = key.trim();
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad value for {key}: {e}", lineno + 1))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "line {}: {key} must be finite and non-negative",
                    lineno + 1
                ));
            }
            match key {
                "par_eff" => p.par_eff = value.max(1.0),
                "dispatch_ns" => p.dispatch_ns = value,
                "job_ns" => p.job_ns = value,
                "min_gain" => p.min_gain = value.max(1.0),
                other => {
                    let class = OpClass::ALL
                        .iter()
                        .find(|c| other == format!("{}_per_elem_ns", c.key()))
                        .ok_or_else(|| format!("line {}: unknown key {other:?}", lineno + 1))?;
                    p.per_elem_ns[class.index()] = value;
                }
            }
        }
        Ok(p)
    }

    /// Serializes into the `key = value` format accepted by
    /// [`Profile::from_profile_str`] / `ANAHEIM_PAR_PROFILE`.
    pub fn to_profile_string(&self) -> String {
        let mut s = String::from("# anaheim parallelism tuning profile v1\n");
        s.push_str(&format!("par_eff = {:.3}\n", self.par_eff));
        s.push_str(&format!("dispatch_ns = {:.1}\n", self.dispatch_ns));
        s.push_str(&format!("job_ns = {:.1}\n", self.job_ns));
        s.push_str(&format!("min_gain = {:.3}\n", self.min_gain));
        for c in OpClass::ALL {
            s.push_str(&format!(
                "{}_per_elem_ns = {:.4}\n",
                c.key(),
                self.per_elem_ns[c.index()]
            ));
        }
        s
    }

    /// The modeled serial cost of a batch, ns.
    pub fn serial_ns(&self, class: OpClass, items: usize, elems_per_item: usize) -> f64 {
        items as f64 * class.unit_work(elems_per_item) * self.per_elem_ns[class.index()]
    }

    /// Applies the cost model for a batch of `items` tasks of
    /// `elems_per_item` residues each at the given thread count.
    pub fn decide_with_threads(
        &self,
        class: OpClass,
        items: usize,
        elems_per_item: usize,
        threads: usize,
    ) -> Decision {
        if threads <= 1 || items < 2 {
            return Decision::SERIAL;
        }
        let jobs = items.min(threads);
        let speedup_cap = (jobs as f64).min(self.par_eff);
        if speedup_cap <= 1.0 {
            return Decision::SERIAL;
        }
        let serial = self.serial_ns(class, items, elems_per_item);
        let parallel = serial / speedup_cap + self.dispatch_ns + jobs as f64 * self.job_ns;
        if serial > parallel * self.min_gain {
            Decision { jobs }
        } else {
            Decision::SERIAL
        }
    }
}

/// The process-wide active profile. Loaded once from `ANAHEIM_PAR_PROFILE`
/// (falling back to [`Profile::default_seeded`]); replaced by
/// [`set_profile`].
fn active() -> &'static RwLock<Arc<Profile>> {
    static ACTIVE: OnceLock<RwLock<Arc<Profile>>> = OnceLock::new();
    ACTIVE.get_or_init(|| RwLock::new(Arc::new(load_env_profile())))
}

fn load_env_profile() -> Profile {
    match std::env::var("ANAHEIM_PAR_PROFILE") {
        Ok(path) if !path.trim().is_empty() => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("ANAHEIM_PAR_PROFILE: cannot read {path:?}: {e}"));
            Profile::from_profile_str(&text)
                .unwrap_or_else(|e| panic!("ANAHEIM_PAR_PROFILE: {path:?}: {e}"))
        }
        _ => Profile::default_seeded(),
    }
}

/// The currently active tuning profile.
pub fn profile() -> Arc<Profile> {
    active().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Replaces the active profile at runtime (calibration passes, tests).
pub fn set_profile(p: Profile) {
    *active().write().unwrap_or_else(|e| e.into_inner()) = Arc::new(p);
}

/// Restores the environment-derived profile (undoes [`set_profile`]).
pub fn reset_profile() {
    set_profile(load_env_profile());
}

/// Decides serial vs. chunked-parallel for a batch of `items` tasks of
/// `elems_per_item` residues each, using the active profile and the current
/// `parpool` thread count. Inside a pool worker the decision is always
/// serial (the pool is single-job; nested sections degrade anyway).
pub fn decide(class: OpClass, items: usize, elems_per_item: usize) -> Decision {
    if parpool::is_worker() {
        return Decision::SERIAL;
    }
    profile().decide_with_threads(class, items, elems_per_item, parpool::num_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the global profile or thread count.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn fixed_profile() -> Profile {
        // A host-independent profile for pinning decisions: 8-way effective
        // parallelism, 10 µs dispatch, 1 µs per job, 15 % margin, 1 ns/elem
        // everywhere (NTT work still carries its log2 n factor).
        Profile {
            par_eff: 8.0,
            dispatch_ns: 10_000.0,
            job_ns: 1_000.0,
            min_gain: 1.15,
            per_elem_ns: [1.0; 4],
        }
    }

    #[test]
    fn gate_decisions_at_boundary_shapes() {
        let p = fixed_profile();
        // Tiny batches never fan out, whatever the size of each item.
        assert_eq!(
            p.decide_with_threads(OpClass::Ntt, 1, 1 << 16, 8),
            Decision::SERIAL
        );
        assert_eq!(
            p.decide_with_threads(OpClass::Elementwise, 0, 1 << 16, 8),
            Decision::SERIAL
        );
        // One thread never fans out, whatever the work.
        assert_eq!(
            p.decide_with_threads(OpClass::Ntt, 64, 1 << 16, 1),
            Decision::SERIAL
        );
        // The paper's small-ring pain point: 5 limbs of n=1024 element-wise
        // work (~5 µs serial) must NOT fan out — overhead dominates.
        assert_eq!(
            p.decide_with_threads(OpClass::Elementwise, 5, 1024, 4),
            Decision::SERIAL
        );
        // The same shape as NTT work (~51 µs serial) is borderline: with a
        // 4-thread cap the model predicts 12.8+10+4 = 26.8 µs → 1.9x ≥ 1.15
        // margin ⇒ parallel, fused into 4 jobs.
        assert_eq!(
            p.decide_with_threads(OpClass::Ntt, 5, 1024, 4),
            Decision { jobs: 4 }
        );
        // Deep limb counts at the paper's ring size always fan out, and the
        // chunking factor is the thread count, not the limb count.
        assert_eq!(
            p.decide_with_threads(OpClass::Ntt, 24, 1 << 16, 8),
            Decision { jobs: 8 }
        );
        assert_eq!(
            p.decide_with_threads(OpClass::Elementwise, 24, 1 << 16, 8),
            Decision { jobs: 8 }
        );
        // Jobs never exceed the batch size.
        assert_eq!(
            p.decide_with_threads(OpClass::Ntt, 2, 1 << 16, 8),
            Decision { jobs: 2 }
        );
    }

    #[test]
    fn ntt_gates_are_symmetric_in_batch_size() {
        // The old static gates keyed `intt_gate` on alpha and `ntt_gate` on
        // the level with the same minimum-n constant — asymmetric for the
        // same actual batch. The tuner keys on (batch, n) only: identical
        // shapes get identical decisions regardless of which phase asks.
        let p = fixed_profile();
        for &(batch, n) in &[
            (1usize, 4096usize),
            (2, 256),
            (2, 4096),
            (8, 1024),
            (3, 8192),
        ] {
            let forward = p.decide_with_threads(OpClass::Ntt, batch, n, 8);
            let inverse = p.decide_with_threads(OpClass::Ntt, batch, n, 8);
            assert_eq!(forward, inverse, "asymmetric gate at batch={batch} n={n}");
        }
        // Boundary pin: a 2-limb INTT batch at n=256 (the ModDown alpha=2
        // shape) stays serial; the same batch at n=8192 fans out.
        assert_eq!(
            p.decide_with_threads(OpClass::Ntt, 2, 256, 8),
            Decision::SERIAL
        );
        assert_eq!(
            p.decide_with_threads(OpClass::Ntt, 2, 8192, 8),
            Decision { jobs: 2 }
        );
    }

    #[test]
    fn serial_and_max_parallel_profiles_pin_decisions() {
        let s = Profile::serial();
        assert_eq!(
            s.decide_with_threads(OpClass::Ntt, 64, 1 << 16, 8),
            Decision::SERIAL
        );
        let m = Profile::max_parallel();
        assert_eq!(
            m.decide_with_threads(OpClass::Elementwise, 2, 1, 8),
            Decision { jobs: 2 }
        );
        assert_eq!(
            m.decide_with_threads(OpClass::Elementwise, 1, 1 << 20, 8),
            Decision::SERIAL
        );
    }

    #[test]
    fn profile_roundtrips_through_text() {
        let mut p = fixed_profile();
        p.per_elem_ns = [0.25, 5.5, 3.125, 0.5];
        let text = p.to_profile_string();
        let q = Profile::from_profile_str(&text).expect("roundtrip parse");
        assert_eq!(p, q);
    }

    #[test]
    fn profile_parser_rejects_garbage() {
        assert!(Profile::from_profile_str("par_eff").is_err());
        assert!(Profile::from_profile_str("par_eff = banana").is_err());
        assert!(Profile::from_profile_str("warp_factor = 9").is_err());
        assert!(Profile::from_profile_str("dispatch_ns = -5").is_err());
        assert!(Profile::from_profile_str("job_ns = inf").is_err());
        // Comments, blanks, and partial profiles are fine.
        let p = Profile::from_profile_str("# hi\n\nntt_per_elem_ns = 7.5\n").expect("partial");
        assert_eq!(p.per_elem_ns[OpClass::Ntt.index()], 7.5);
        // par_eff and min_gain clamp to >= 1.
        let p = Profile::from_profile_str("par_eff = 0.2\nmin_gain = 0.5\n").expect("clamps");
        assert_eq!(p.par_eff, 1.0);
        assert_eq!(p.min_gain, 1.0);
    }

    #[test]
    fn set_profile_changes_live_decisions() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        parpool::set_threads(8);
        set_profile(Profile::serial());
        assert!(!decide(OpClass::Ntt, 64, 1 << 14).parallel());
        set_profile(Profile::max_parallel());
        assert!(decide(OpClass::Ntt, 64, 1 << 14).parallel());
        reset_profile();
        parpool::set_threads(0);
    }
}
