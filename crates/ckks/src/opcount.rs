//! Op-count instrumentation.
//!
//! The Anaheim cost model (in `anaheim-core`) predicts, per CKKS function,
//! how many (I)NTT limb-transforms, BConv limb-pair products, element-wise
//! limb ops, and automorphism limb permutations occur. These counters let us
//! *measure* the same quantities in the functional library and assert the
//! two agree (the validation behind the Fig. 1 table).
//!
//! Counters are **thread-local**: each measurement window (`reset()` …
//! `snapshot()`) only observes work performed on its own thread, so tests
//! running in parallel (the default test harness) cannot perturb each
//! other's counts. All library entry points count on the calling thread.
//!
//! Parallel sections route through a [`SharedCounts`] sink: code that fans
//! work out to the `parpool` workers wraps each task in
//! [`SharedCounts::record`] (so counts land in a shared atomic pot instead
//! of a worker's thread-locals) and calls [`SharedCounts::fold`] after the
//! join. The fold goes where a count made at that point would go, so sinks
//! nest: a ModUp's digit sink inside a fanned-out bootstrap half folds into
//! the half's sink, even on a pool worker. Counts are sums, so the folded
//! totals are identical to a serial run for any thread count.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    static NTT_LIMBS: Cell<u64> = const { Cell::new(0) };
    static INTT_LIMBS: Cell<u64> = const { Cell::new(0) };
    static BCONV_LIMB_PRODUCTS: Cell<u64> = const { Cell::new(0) };
    static EW_LIMB_OPS: Cell<u64> = const { Cell::new(0) };
    static AUTOMORPHISM_LIMBS: Cell<u64> = const { Cell::new(0) };
    static KEYSWITCHES: Cell<u64> = const { Cell::new(0) };
    static SINK: RefCell<Option<Arc<SharedCounts>>> = const { RefCell::new(None) };
}

/// A shared accumulator that collects op counts from worker threads during
/// a parallel section, to be folded into the caller's thread-local totals
/// once the section joins.
#[derive(Debug, Default)]
pub struct SharedCounts {
    ntt: AtomicU64,
    intt: AtomicU64,
    bconv: AtomicU64,
    ew: AtomicU64,
    automorphism: AtomicU64,
    keyswitch: AtomicU64,
}

impl SharedCounts {
    /// A fresh, empty sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Runs `f` with this thread's counts routed into the shared pot.
    /// Restores the previous routing on exit (including on panic, so pool
    /// workers never leak a stale sink).
    pub fn record<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<SharedCounts>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SINK.with(|s| *s.borrow_mut() = self.0.take());
            }
        }
        let prev = SINK.with(|s| s.borrow_mut().replace(Arc::clone(self)));
        let _restore = Restore(prev);
        f()
    }

    /// Drains the pot into the counts of the calling thread: into the sink
    /// routing it, if one does, else into its thread-locals. Call once,
    /// after all recorded tasks have joined.
    pub fn fold(&self) {
        let take = |a: &AtomicU64| a.swap(0, Ordering::Relaxed);
        add(&NTT_LIMBS, |s| &s.ntt, take(&self.ntt));
        add(&INTT_LIMBS, |s| &s.intt, take(&self.intt));
        add(&BCONV_LIMB_PRODUCTS, |s| &s.bconv, take(&self.bconv));
        add(&EW_LIMB_OPS, |s| &s.ew, take(&self.ew));
        add(
            &AUTOMORPHISM_LIMBS,
            |s| &s.automorphism,
            take(&self.automorphism),
        );
        add(&KEYSWITCHES, |s| &s.keyswitch, take(&self.keyswitch));
    }
}

/// Adds `v` to the sink routing this thread if one is installed, else to
/// the thread-local counter `local`.
fn add(
    local: &'static std::thread::LocalKey<Cell<u64>>,
    pick: impl Fn(&SharedCounts) -> &AtomicU64,
    v: u64,
) {
    let routed = SINK.with(|s| match &*s.borrow() {
        Some(sink) => {
            pick(sink).fetch_add(v, Ordering::Relaxed);
            true
        }
        None => false,
    });
    if !routed {
        local.set(local.get() + v);
    }
}

/// A snapshot of all counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Forward NTTs, counted per limb.
    pub ntt_limbs: u64,
    /// Inverse NTTs, counted per limb.
    pub intt_limbs: u64,
    /// BConv work, counted as source-limb × target-limb products.
    pub bconv_limb_products: u64,
    /// Element-wise limb operations (add/sub/mult/MAC on a full limb).
    pub ew_limb_ops: u64,
    /// Automorphism applications, counted per limb.
    pub automorphism_limbs: u64,
    /// Number of key-switching operations (ModUp→KeyMult→ModDown bundles).
    pub keyswitches: u64,
}

impl OpCounts {
    /// Total (I)NTT limb count, the headline quantity of the Fig. 1 table.
    pub fn total_ntt_limbs(&self) -> u64 {
        self.ntt_limbs + self.intt_limbs
    }

    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            ntt_limbs: self.ntt_limbs - earlier.ntt_limbs,
            intt_limbs: self.intt_limbs - earlier.intt_limbs,
            bconv_limb_products: self.bconv_limb_products - earlier.bconv_limb_products,
            ew_limb_ops: self.ew_limb_ops - earlier.ew_limb_ops,
            automorphism_limbs: self.automorphism_limbs - earlier.automorphism_limbs,
            keyswitches: self.keyswitches - earlier.keyswitches,
        }
    }

    /// Exports the counts as `anaheim_fn_op_limbs{op=…}` gauges (absolute
    /// sets, so re-exporting is idempotent). The names match the catalogue
    /// in `docs/METRICS.md`.
    pub fn export(&self, metrics: &mut obs::MetricsRegistry) {
        for (op, v) in [
            ("ntt", self.ntt_limbs),
            ("intt", self.intt_limbs),
            ("bconv", self.bconv_limb_products),
            ("ew", self.ew_limb_ops),
            ("automorphism", self.automorphism_limbs),
            ("keyswitch", self.keyswitches),
        ] {
            metrics.set_gauge("anaheim_fn_op_limbs", &[("op", op)], v as f64);
        }
    }
}

/// Takes a snapshot of this thread's counters.
pub fn snapshot() -> OpCounts {
    OpCounts {
        ntt_limbs: NTT_LIMBS.get(),
        intt_limbs: INTT_LIMBS.get(),
        bconv_limb_products: BCONV_LIMB_PRODUCTS.get(),
        ew_limb_ops: EW_LIMB_OPS.get(),
        automorphism_limbs: AUTOMORPHISM_LIMBS.get(),
        keyswitches: KEYSWITCHES.get(),
    }
}

/// Resets this thread's counters to zero.
pub fn reset() {
    NTT_LIMBS.set(0);
    INTT_LIMBS.set(0);
    BCONV_LIMB_PRODUCTS.set(0);
    EW_LIMB_OPS.set(0);
    AUTOMORPHISM_LIMBS.set(0);
    KEYSWITCHES.set(0);
}

pub(crate) fn count_ntt(limbs: usize) {
    add(&NTT_LIMBS, |s| &s.ntt, limbs as u64);
}

pub(crate) fn count_intt(limbs: usize) {
    add(&INTT_LIMBS, |s| &s.intt, limbs as u64);
}

pub(crate) fn count_bconv(source_limbs: usize, target_limbs: usize) {
    add(
        &BCONV_LIMB_PRODUCTS,
        |s| &s.bconv,
        (source_limbs * target_limbs) as u64,
    );
}

pub(crate) fn count_ew(limb_ops: usize) {
    add(&EW_LIMB_OPS, |s| &s.ew, limb_ops as u64);
}

pub(crate) fn count_automorphism(limbs: usize) {
    add(&AUTOMORPHISM_LIMBS, |s| &s.automorphism, limbs as u64);
}

pub(crate) fn count_keyswitch() {
    add(&KEYSWITCHES, |s| &s.keyswitch, 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let before = snapshot();
        count_ntt(3);
        count_intt(2);
        count_bconv(4, 5);
        count_ew(7);
        count_automorphism(2);
        count_keyswitch();
        let after = snapshot();
        let d = after.since(&before);
        assert_eq!(d.ntt_limbs, 3);
        assert_eq!(d.intt_limbs, 2);
        assert_eq!(d.total_ntt_limbs(), 5);
        assert_eq!(d.bconv_limb_products, 20);
        assert_eq!(d.ew_limb_ops, 7);
        assert_eq!(d.automorphism_limbs, 2);
        assert_eq!(d.keyswitches, 1);
    }

    #[test]
    fn sink_folds_worker_counts_into_caller() {
        let before = snapshot();
        let sink = SharedCounts::new();
        // Worker threads record into the sink; their own thread-locals and
        // the caller's stay untouched until the fold.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&sink);
                std::thread::spawn(move || {
                    s.record(|| {
                        count_ntt(3);
                        count_ew(2);
                    });
                    snapshot().ntt_limbs
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 0, "worker thread-locals unperturbed");
        }
        assert_eq!(snapshot().since(&before).ntt_limbs, 0, "not folded yet");
        sink.fold();
        let d = snapshot().since(&before);
        assert_eq!(d.ntt_limbs, 12);
        assert_eq!(d.ew_limb_ops, 8);
        // A second fold is a no-op (the pot drains on fold).
        sink.fold();
        assert_eq!(snapshot().since(&before).ntt_limbs, 12);
    }

    #[test]
    fn nested_sinks_on_a_pool_worker_lose_no_counts() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        use std::time::{Duration, Instant};
        let _guard = crate::POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        parpool::set_threads(2);
        let before = snapshot();
        let outer = SharedCounts::new();
        let on_worker = AtomicBool::new(false);
        let mut rounds = 0u64;
        // A pool busy with another test's job runs the section inline on
        // this thread, so repeat until a pool worker has run a task: each
        // task waits briefly for the other to start, which a worker does.
        while !on_worker.load(Ordering::Relaxed) {
            assert!(rounds < 1000, "no task ever ran on a pool worker");
            rounds += 1;
            let started = AtomicUsize::new(0);
            parpool::run(2, &|_| {
                started.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                while started.load(Ordering::Relaxed) < 2
                    && t0.elapsed() < Duration::from_millis(10)
                {
                    std::hint::spin_loop();
                }
                outer.record(|| {
                    let inner = SharedCounts::new();
                    inner.record(|| {
                        count_ntt(3);
                        count_bconv(2, 5);
                    });
                    inner.fold();
                    count_ew(1);
                    if parpool::is_worker() {
                        on_worker.store(true, Ordering::Relaxed);
                    }
                });
            });
        }
        outer.fold();
        let d = snapshot().since(&before);
        assert_eq!(d.ntt_limbs, 2 * 3 * rounds);
        assert_eq!(d.bconv_limb_products, 2 * 10 * rounds);
        assert_eq!(d.ew_limb_ops, 2 * rounds);
        parpool::set_threads(0);
    }

    #[test]
    fn record_restores_previous_sink_on_panic() {
        let sink = SharedCounts::new();
        let caught = std::panic::catch_unwind(|| sink.record(|| panic!("boom")));
        assert!(caught.is_err());
        // The sink must be uninstalled again: this count goes to the
        // thread-locals, not the pot.
        let before = snapshot();
        count_ntt(1);
        assert_eq!(snapshot().since(&before).ntt_limbs, 1);
    }

    #[test]
    fn export_sets_gauges_idempotently() {
        let counts = OpCounts {
            ntt_limbs: 3,
            ew_limb_ops: 7,
            ..Default::default()
        };
        let mut m = obs::MetricsRegistry::new();
        counts.export(&mut m);
        counts.export(&mut m);
        assert_eq!(
            m.gauge_value("anaheim_fn_op_limbs", &[("op", "ntt")]),
            Some(3.0)
        );
        assert_eq!(
            m.gauge_value("anaheim_fn_op_limbs", &[("op", "ew")]),
            Some(7.0)
        );
    }

    #[test]
    fn counters_are_thread_local() {
        reset();
        count_ntt(5);
        let other = std::thread::spawn(|| {
            count_ntt(1000);
            snapshot().ntt_limbs
        })
        .join()
        .unwrap();
        assert_eq!(other, 1000, "spawned thread sees only its own counts");
        assert_eq!(snapshot().ntt_limbs, 5, "this thread is unperturbed");
    }
}
