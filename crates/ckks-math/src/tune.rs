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
//! # Ciphertext-level fan-out
//!
//! Some callers hold jobs far coarser than a limb batch, such as the two
//! halves of a bootstrap stage.
//! [`decide_tasks`] runs them all at once whenever the host can run more
//! than one (`threads > 1`, `par_eff > 1`) and the caller is not already
//! inside a fan-out; each job then runs under [`run_inline`], so its own
//! limb batches stay serial. A job lasts many limb batches, so the pool's
//! dispatch cost does not enter the rule.
//!
//! # Profiles
//!
//! All model constants live in a [`Profile`]:
//!
//! - [`Profile::default_seeded`] — the one profile every run uses:
//!   per-class costs seeded from `BENCH_ckks.json` runs, with `par_eff`
//!   taken from `available_parallelism()`. On a 1-CPU host this resolves
//!   to *serial everywhere*, which is exactly right.
//! - [`set_profile`] / [`reset_profile`] — runtime override for tests
//!   ([`Profile::serial`], [`Profile::max_parallel`] pin decisions
//!   independent of the host).
//!
//! # Determinism
//!
//! A decision only selects *how* work is scheduled, never what is computed:
//! chunked fan-out visits indices in serial order within disjoint chunks,
//! so results and op counts are bit-identical across thread counts and
//! profiles (`tests/parallel_equivalence.rs` sweeps both).

use std::cell::Cell;
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
    /// Per-class serial cost per work unit, ns, in the order
    /// `[Elementwise, Ntt, BConv, Automorphism]`.
    pub per_elem_ns: [f64; 4],
}

impl Profile {
    /// Measured defaults: per-class costs seeded from `BENCH_ckks.json`
    /// microbenchmarks (DESIGN.md §9 says how to re-seed them), `par_eff`
    /// from the parallelism the OS reports.
    pub fn default_seeded() -> Self {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            par_eff: hw as f64,
            dispatch_ns: 10_000.0,
            job_ns: 2_000.0,
            min_gain: 1.15,
            // [elementwise, ntt, bconv, automorphism]. The NTT and BConv
            // costs are those of the lazy-reduction kernels (radix-4
            // forward NTT), about 7.5× and 2× below the fully reducing
            // kernels they replaced (5.5 and 3.0).
            per_elem_ns: [0.9, 0.72, 1.3, 0.5],
        }
    }

    /// A profile that forces every decision to serial (par_eff = 1).
    /// Used by tests.
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

    /// The modeled serial cost of a batch, ns.
    pub fn serial_ns(&self, class: OpClass, items: usize, elems_per_item: usize) -> f64 {
        items as f64 * class.unit_work(elems_per_item) * self.per_elem_ns[class.index()]
    }

    /// The ciphertext-level rule: fan `tasks` independent jobs out as
    /// `min(tasks, threads)` pool jobs (each running its limb batches
    /// inline) unless there is one thread, one task, or no effective
    /// parallelism.
    pub fn decide_tasks_with_threads(&self, tasks: usize, threads: usize) -> Decision {
        if threads <= 1 || tasks < 2 || self.par_eff <= 1.0 {
            return Decision::SERIAL;
        }
        Decision {
            jobs: tasks.min(threads),
        }
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

/// The process-wide active profile: [`Profile::default_seeded`] until
/// [`set_profile`] replaces it.
fn active() -> &'static RwLock<Arc<Profile>> {
    static ACTIVE: OnceLock<RwLock<Arc<Profile>>> = OnceLock::new();
    ACTIVE.get_or_init(|| RwLock::new(Arc::new(Profile::default_seeded())))
}

/// The currently active tuning profile.
pub fn profile() -> Arc<Profile> {
    active().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Replaces the active profile at runtime (tests).
pub fn set_profile(p: Profile) {
    *active().write().unwrap_or_else(|e| e.into_inner()) = Arc::new(p);
}

/// Restores [`Profile::default_seeded`] (undoes [`set_profile`]).
pub fn reset_profile() {
    set_profile(Profile::default_seeded());
}

thread_local! {
    /// Set while this thread runs a task of a ciphertext-level fan-out.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` as one task of a ciphertext-level fan-out: every [`decide`]
/// and [`decide_tasks`] inside it is serial, so the task's limb batches
/// run inline on whichever thread runs the task. This also covers the
/// calling thread, which takes a share of the tasks itself and would
/// otherwise reach `parpool::run`'s in-flight check (the pool lock) on
/// every limb batch.
pub fn run_inline<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_TASK.set(self.0);
        }
    }
    let _restore = Restore(IN_TASK.replace(true));
    f()
}

/// True where fan-out is already taken: on a pool worker, or inside a
/// [`run_inline`] task.
fn nested() -> bool {
    parpool::is_worker() || IN_TASK.get()
}

/// Decides serial vs. chunked-parallel for a batch of `items` tasks of
/// `elems_per_item` residues each, using the active profile and the current
/// `parpool` thread count. Inside a pool worker or a [`run_inline`] task
/// the decision is always serial (the pool is single-job; nested sections
/// degrade anyway).
pub fn decide(class: OpClass, items: usize, elems_per_item: usize) -> Decision {
    if nested() {
        return Decision::SERIAL;
    }
    profile().decide_with_threads(class, items, elems_per_item, parpool::num_threads())
}

/// Decides where `tasks` independent ciphertext-level jobs run: all at
/// once, each inline ([`Decision::parallel`], see
/// [`Profile::decide_tasks_with_threads`]), or one after the other, using
/// the active profile and the current `parpool` thread count. Inside a
/// pool worker or a [`run_inline`] task the decision is always serial.
pub fn decide_tasks(tasks: usize) -> Decision {
    if nested() {
        return Decision::SERIAL;
    }
    profile().decide_tasks_with_threads(tasks, parpool::num_threads())
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
    fn task_level_fans_out_whenever_the_host_can() {
        let p = fixed_profile();
        // The two halves of a bootstrap stage fan out at 2 threads and
        // take two of 8 threads; sixteen tasks fill all eight.
        assert_eq!(p.decide_tasks_with_threads(2, 2), Decision { jobs: 2 });
        assert_eq!(p.decide_tasks_with_threads(2, 8), Decision { jobs: 2 });
        assert_eq!(p.decide_tasks_with_threads(16, 8), Decision { jobs: 8 });
        // One thread, one task or no effective parallelism: serial.
        assert_eq!(p.decide_tasks_with_threads(2, 1), Decision::SERIAL);
        assert_eq!(p.decide_tasks_with_threads(1, 8), Decision::SERIAL);
        assert_eq!(
            Profile::serial().decide_tasks_with_threads(2, 8),
            Decision::SERIAL
        );
    }

    #[test]
    fn run_inline_keeps_nested_decisions_serial() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        parpool::set_threads(8);
        set_profile(Profile::max_parallel());
        assert!(decide(OpClass::Ntt, 64, 1 << 14).parallel());
        assert!(decide_tasks(16).parallel());
        run_inline(|| {
            assert!(!decide(OpClass::Ntt, 64, 1 << 14).parallel());
            assert!(!decide_tasks(16).parallel());
        });
        // The flag is restored on exit.
        assert!(decide(OpClass::Ntt, 64, 1 << 14).parallel());
        reset_profile();
        parpool::set_threads(0);
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
