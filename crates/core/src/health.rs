//! Degradation policy for the PIM path: seeded retry backoff, per-bank
//! circuit breakers, and the [`HealthRegistry`] that carries both across
//! scheduler runs.
//!
//! The PR-1 retry path treated every fault the same way: a fixed number of
//! immediate retries, then GPU fallback, with no memory between kernels. A
//! production serving stack needs the opposite discipline — decide *per
//! bank, over time* whether offloading is still worth it (the paper's value
//! proposition is keeping element-wise traffic on PIM, §V–§VI, so routing
//! around a sick bank instead of abandoning PIM wholesale preserves most of
//! the win):
//!
//! - [`RetryPolicy`] — exponential backoff with deterministic jitter and a
//!   per-kernel backoff budget, replacing the hardcoded retry constant.
//!   [`RetryPolicy::fixed`] reproduces the old behaviour exactly.
//! - [`BankBreaker`] — a Closed → Open → HalfOpen circuit breaker per bank
//!   health domain (die group), keyed on integrity-check failures. Enough
//!   consecutive failures open the breaker; kernels for an open domain skip
//!   PIM and go straight to the GPU; after a cooldown the breaker half-opens
//!   and the next kernel probes the bank back to health. Hard faults (stuck
//!   MMAC lane) open the breaker permanently.
//! - [`HealthRegistry`] — the breakers plus shed/retry/fallback counters and
//!   queue-depth gauges, with an append-only transition log. Snapshots
//!   ([`HealthRegistry::snapshot`]) are plain comparable data, which is what
//!   the determinism regression tests diff across thread counts.
//!
//! Everything here is deterministic by construction: jitter comes from a
//! SplitMix64 hash of (seed, kernel index, attempt), time is the virtual
//! nanosecond clock of the scheduler, and no wall-clock or thread identity
//! ever enters a decision.

use std::fmt;

use crate::report::ExecutionReport;

/// Retry discipline for transient PIM integrity failures.
///
/// `fixed(n)` (and `Default` via the scheduler) gives `n` immediate retries
/// with zero backoff — bit-identical to the old `MAX_PIM_RETRIES` behaviour.
/// Serving configurations use [`RetryPolicy::serving_default`], which backs
/// off exponentially with deterministic jitter and stops early when the
/// per-kernel backoff budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum PIM retries per kernel after the first failed attempt.
    pub max_retries: u32,
    /// Backoff charged to the timeline before retry 1 (ns).
    pub base_backoff_ns: f64,
    /// Backoff growth factor per additional retry.
    pub multiplier: f64,
    /// Jitter as a fraction of the computed backoff (0.0 = none). The
    /// sampled jitter is deterministic in (seed, kernel, attempt).
    pub jitter_frac: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
    /// Total backoff budget per kernel (ns); a retry whose backoff would
    /// exceed the remaining budget is abandoned in favour of GPU fallback.
    pub budget_ns: f64,
}

impl RetryPolicy {
    /// `n` immediate retries, no backoff — the legacy behaviour.
    pub fn fixed(n: u32) -> Self {
        Self {
            max_retries: n,
            base_backoff_ns: 0.0,
            multiplier: 1.0,
            jitter_frac: 0.0,
            seed: 0,
            budget_ns: f64::INFINITY,
        }
    }

    /// The serving-layer default: 3 retries, 500 ns base backoff doubling
    /// per attempt, ±25 % deterministic jitter, 10 µs budget.
    pub fn serving_default(seed: u64) -> Self {
        Self {
            max_retries: 3,
            base_backoff_ns: 500.0,
            multiplier: 2.0,
            jitter_frac: 0.25,
            seed,
            budget_ns: 10_000.0,
        }
    }

    /// Backoff before retry `attempt` (1-based) of kernel `kernel`, in ns.
    /// Deterministic: the same (policy, kernel, attempt) always yields the
    /// same value regardless of thread count or execution order.
    pub fn backoff_ns(&self, kernel: u64, attempt: u32) -> f64 {
        if self.base_backoff_ns <= 0.0 {
            return 0.0;
        }
        let raw = self.base_backoff_ns * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        if self.jitter_frac <= 0.0 {
            return raw;
        }
        let h = splitmix64(
            self.seed
                .wrapping_add(kernel.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(attempt as u64),
        );
        // Uniform in [-1, 1).
        let u = (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        (raw * (1.0 + self.jitter_frac * u)).max(0.0)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Circuit-breaker tuning shared by every bank domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive kernel-level failures (attempt exhausted or hard fault)
    /// that open the breaker.
    pub failure_threshold: u32,
    /// Initial open-state cooldown before a half-open probe (virtual ns).
    pub cooldown_ns: f64,
    /// Cooldown growth factor after each failed probe.
    pub cooldown_multiplier: f64,
    /// Upper bound on the cooldown (ns).
    pub max_cooldown_ns: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_ns: 50_000.0,
            cooldown_multiplier: 2.0,
            max_cooldown_ns: 10_000_000.0,
        }
    }
}

/// Breaker states, in the classic Closed → Open → HalfOpen cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: kernels run on PIM.
    Closed,
    /// Tripped: kernels skip PIM and run on the GPU until the cooldown
    /// elapses (or forever, for hard faults).
    Open,
    /// Probing: one kernel is allowed onto PIM; success closes the breaker,
    /// failure re-opens it with an escalated cooldown.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// One breaker state change, for the append-only transition log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerTransition {
    /// Bank health domain (die group index).
    pub bank: u32,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Virtual time of the transition (ns).
    pub at_ns: f64,
    /// What caused it: a fault cause label ("stuck-lane", "bit-flip", …),
    /// "cooldown" for Open → HalfOpen, "probe-ok" for HalfOpen → Closed.
    pub cause: &'static str,
}

/// The routing decision for one kernel on one bank domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathDecision {
    /// Breaker closed: run on PIM normally.
    Allow,
    /// Breaker half-open: run on PIM as a health probe.
    Probe,
    /// Breaker open: skip PIM, go straight to the GPU.
    Skip,
}

/// Per-domain breaker bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct BankBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// Virtual time at which an open breaker may half-open.
    open_until_ns: f64,
    /// Cooldown the *next* trip will use.
    next_cooldown_ns: f64,
    /// Hard fault observed: the breaker never half-opens again.
    permanent: bool,
    /// Times this breaker has tripped (Closed/HalfOpen → Open).
    trips: u32,
}

impl BankBreaker {
    fn new(cfg: &BreakerConfig) -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_ns: 0.0,
            next_cooldown_ns: cfg.cooldown_ns,
            permanent: false,
            trips: 0,
        }
    }
}

/// Comparable status of one bank domain, for snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankStatus {
    /// Domain index.
    pub bank: u32,
    /// Current breaker state.
    pub state: BreakerState,
    /// Consecutive failures counted towards the threshold.
    pub consecutive_failures: u32,
    /// Times the breaker tripped open.
    pub trips: u32,
    /// Whether a hard fault opened it permanently.
    pub permanent: bool,
}

/// Monotone counters across the registry's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// PIM retries taken after transient failures.
    pub pim_retries: u64,
    /// Kernels re-executed on the GPU after exhausting PIM attempts.
    pub gpu_fallbacks: u64,
    /// Kernels routed straight to the GPU because their breaker was open.
    pub breaker_skips: u64,
    /// Integrity-check failures observed.
    pub faults_detected: u64,
    /// Half-open probes attempted.
    pub probes: u64,
    /// Probes that failed (breaker re-opened).
    pub probe_failures: u64,
    /// Requests completed before their deadline (serving layer).
    pub completed: u64,
    /// Requests that missed their deadline (serving layer).
    pub deadline_misses: u64,
    /// Requests cancelled mid-flight when their deadline budget ran out
    /// (serving layer, budget propagation enabled).
    pub cancelled_over_budget: u64,
    /// Requests whose end-to-end integrity verdict failed (a corrupted
    /// result reached the output instead of being absorbed per-kernel).
    pub integrity_failures: u64,
    /// Requests shed at admission: queue full.
    pub shed_queue_full: u64,
    /// Requests shed at admission: deadline infeasible.
    pub shed_infeasible: u64,
    /// Requests submitted (admitted or shed).
    pub submitted: u64,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: u64,
}

/// A comparable, copyable view of the registry — what the determinism
/// regression tests diff across thread counts, and what `bench_json`
/// serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Per-domain breaker status.
    pub banks: Vec<BankStatus>,
    /// Lifetime counters.
    pub counters: HealthCounters,
    /// Length of the transition log.
    pub transitions: usize,
}

impl HealthSnapshot {
    /// Domains currently open (sick and routed around).
    pub fn open_banks(&self) -> usize {
        self.banks
            .iter()
            .filter(|b| b.state == BreakerState::Open)
            .count()
    }

    /// Total breaker trips across all domains.
    pub fn total_trips(&self) -> u32 {
        self.banks.iter().map(|b| b.trips).sum()
    }
}

/// Per-bank breakers + counters + transition log, persisted across
/// scheduler runs (and across serving requests).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRegistry {
    config: BreakerConfig,
    breakers: Vec<BankBreaker>,
    transitions: Vec<BreakerTransition>,
    /// Lifetime counters (scheduler- and serving-level).
    pub counters: HealthCounters,
    /// Round-robin cursor attributing kernels to domains.
    kernel_cursor: u64,
    /// Virtual-time base added to the scheduler's run-local clock, so
    /// transition timestamps are globally ordered across requests.
    base_ns: f64,
}

impl HealthRegistry {
    /// A registry with `domains` bank health domains.
    pub fn new(domains: usize, config: BreakerConfig) -> Self {
        Self {
            config,
            breakers: (0..domains).map(|_| BankBreaker::new(&config)).collect(),
            transitions: Vec::new(),
            counters: HealthCounters::default(),
            kernel_cursor: 0,
            base_ns: 0.0,
        }
    }

    /// A registry sized for a PIM device: one domain per die group.
    pub fn for_device(dev: &pim::PimDeviceConfig, config: BreakerConfig) -> Self {
        Self::new(dev.dram.geometry.die_groups, config)
    }

    /// Number of bank domains.
    pub fn domains(&self) -> usize {
        self.breakers.len()
    }

    /// The breaker configuration in force.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// The append-only transition log.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Sets the virtual-time base for subsequent scheduler runs (the
    /// serving layer sets this to each request's start time).
    pub fn set_base_ns(&mut self, base_ns: f64) {
        self.base_ns = base_ns;
    }

    /// The current virtual-time base.
    pub fn base_ns(&self) -> f64 {
        self.base_ns
    }

    /// Attributes the next PIM kernel to a domain (deterministic
    /// round-robin across the registry's lifetime).
    pub fn assign_domain(&mut self) -> u32 {
        debug_assert!(!self.breakers.is_empty());
        let d = (self.kernel_cursor % self.breakers.len() as u64) as u32;
        self.kernel_cursor += 1;
        d
    }

    /// Records a queue-depth observation (serving layer).
    pub fn note_queue_depth(&mut self, depth: usize) {
        self.counters.max_queue_depth = self.counters.max_queue_depth.max(depth as u64);
    }

    fn push_transition(
        &mut self,
        bank: u32,
        from: BreakerState,
        to: BreakerState,
        at_ns: f64,
        cause: &'static str,
    ) -> BreakerTransition {
        let t = BreakerTransition {
            bank,
            from,
            to,
            at_ns,
            cause,
        };
        self.transitions.push(t);
        t
    }

    /// Routing decision for a kernel on `bank` at local scheduler time
    /// `local_now_ns` (the registry adds its base). May emit an
    /// Open → HalfOpen transition when a cooldown has elapsed.
    pub fn decide(
        &mut self,
        bank: u32,
        local_now_ns: f64,
    ) -> (PathDecision, Option<BreakerTransition>) {
        let now = self.base_ns + local_now_ns;
        let b = &mut self.breakers[bank as usize];
        match b.state {
            BreakerState::Closed => (PathDecision::Allow, None),
            BreakerState::HalfOpen => {
                self.counters.probes += 1;
                (PathDecision::Probe, None)
            }
            BreakerState::Open => {
                if !b.permanent && now >= b.open_until_ns {
                    b.state = BreakerState::HalfOpen;
                    self.counters.probes += 1;
                    let t = self.push_transition(
                        bank,
                        BreakerState::Open,
                        BreakerState::HalfOpen,
                        now,
                        "cooldown",
                    );
                    (PathDecision::Probe, Some(t))
                } else {
                    self.counters.breaker_skips += 1;
                    (PathDecision::Skip, None)
                }
            }
        }
    }

    /// Records a kernel-level PIM success on `bank`. Closes a half-open
    /// breaker and resets the failure streak.
    pub fn on_success(&mut self, bank: u32, local_now_ns: f64) -> Option<BreakerTransition> {
        let now = self.base_ns + local_now_ns;
        let b = &mut self.breakers[bank as usize];
        b.consecutive_failures = 0;
        if b.state == BreakerState::HalfOpen {
            b.state = BreakerState::Closed;
            b.next_cooldown_ns = self.config.cooldown_ns;
            return Some(self.push_transition(
                bank,
                BreakerState::HalfOpen,
                BreakerState::Closed,
                now,
                "probe-ok",
            ));
        }
        None
    }

    /// Records a kernel-level PIM failure on `bank` (all attempts
    /// exhausted, or a hard fault). Returns the transition if the breaker
    /// tripped. `permanent` pins the breaker open with no recovery.
    pub fn on_failure(
        &mut self,
        bank: u32,
        permanent: bool,
        local_now_ns: f64,
        cause: &'static str,
    ) -> Option<BreakerTransition> {
        let now = self.base_ns + local_now_ns;
        let cfg = self.config;
        let b = &mut self.breakers[bank as usize];
        b.consecutive_failures += 1;
        let from = b.state;
        let trip = match b.state {
            BreakerState::HalfOpen => {
                self.counters.probe_failures += 1;
                true
            }
            BreakerState::Closed => permanent || b.consecutive_failures >= cfg.failure_threshold,
            BreakerState::Open => {
                // Already open (e.g. a permanent fault reported again).
                b.permanent |= permanent;
                false
            }
        };
        if !trip {
            return None;
        }
        let b = &mut self.breakers[bank as usize];
        b.state = BreakerState::Open;
        b.permanent |= permanent;
        b.trips += 1;
        b.open_until_ns = now + b.next_cooldown_ns;
        b.next_cooldown_ns =
            (b.next_cooldown_ns * cfg.cooldown_multiplier).min(cfg.max_cooldown_ns);
        Some(self.push_transition(bank, from, BreakerState::Open, now, cause))
    }

    /// Adds a completed run's fault, retry and fallback totals to the
    /// lifetime counters, once, when the run ends. A run that returns
    /// `Err` adds nothing.
    pub fn run_complete(&mut self, report: &ExecutionReport) {
        self.counters.faults_detected += u64::from(report.faults_detected);
        self.counters.pim_retries += u64::from(report.pim_retries);
        self.counters.gpu_fallbacks += u64::from(report.pim_fallbacks);
    }

    /// Domains whose breaker is currently open (sick and routed around).
    pub fn open_domains(&self) -> usize {
        self.breakers
            .iter()
            .filter(|b| b.state == BreakerState::Open)
            .count()
    }

    /// Fraction of domains currently open, in `[0, 1]` (0.0 for an empty
    /// registry) — the shard layer's unhealthiness signal.
    pub fn open_fraction(&self) -> f64 {
        if self.breakers.is_empty() {
            0.0
        } else {
            self.open_domains() as f64 / self.breakers.len() as f64
        }
    }

    /// A comparable snapshot of the registry.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            banks: self
                .breakers
                .iter()
                .enumerate()
                .map(|(i, b)| BankStatus {
                    bank: i as u32,
                    state: b.state,
                    consecutive_failures: b.consecutive_failures,
                    trips: b.trips,
                    permanent: b.permanent,
                })
                .collect(),
            counters: self.counters,
            transitions: self.transitions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ns: 1000.0,
            cooldown_multiplier: 2.0,
            max_cooldown_ns: 8000.0,
        }
    }

    #[test]
    fn fixed_policy_has_no_backoff() {
        let p = RetryPolicy::fixed(2);
        assert_eq!(p.max_retries, 2);
        for k in 0..10 {
            for a in 1..4 {
                assert_eq!(p.backoff_ns(k, a), 0.0);
            }
        }
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let p = RetryPolicy::serving_default(7);
        let b1 = p.backoff_ns(4, 1);
        let b2 = p.backoff_ns(4, 2);
        let b3 = p.backoff_ns(4, 3);
        assert!(b1 > 0.0);
        assert!(b2 > b1, "{b2} > {b1}");
        assert!(b3 > b2, "{b3} > {b2}");
        // Jitter bounded by ±25 %.
        assert!((b1 - 500.0).abs() <= 125.0 + 1e-9);
        // Deterministic across calls; distinct across kernels.
        assert_eq!(p.backoff_ns(4, 1), b1);
        assert_ne!(p.backoff_ns(5, 1), b1);
    }

    #[test]
    fn breaker_opens_at_threshold_and_recovers_via_probe() {
        let mut reg = HealthRegistry::new(2, cfg());
        // Two failures: still closed.
        assert!(reg.on_failure(0, false, 10.0, "bit-flip").is_none());
        assert!(reg.on_failure(0, false, 20.0, "bit-flip").is_none());
        assert_eq!(reg.decide(0, 25.0).0, PathDecision::Allow);
        // Third failure trips it.
        let t = reg.on_failure(0, false, 30.0, "bit-flip").expect("trips");
        assert_eq!((t.from, t.to), (BreakerState::Closed, BreakerState::Open));
        // Open: skip until the cooldown elapses.
        assert_eq!(reg.decide(0, 31.0).0, PathDecision::Skip);
        // Other domains are unaffected.
        assert_eq!(reg.decide(1, 31.0).0, PathDecision::Allow);
        // Cooldown elapsed: half-open probe.
        let (d, t) = reg.decide(0, 1031.0);
        assert_eq!(d, PathDecision::Probe);
        assert_eq!(t.unwrap().to, BreakerState::HalfOpen);
        // Probe succeeds: closed again, cooldown reset.
        let t = reg.on_success(0, 1040.0).expect("closes");
        assert_eq!(t.to, BreakerState::Closed);
        assert_eq!(reg.decide(0, 1041.0).0, PathDecision::Allow);
        assert_eq!(reg.snapshot().total_trips(), 1);
    }

    #[test]
    fn failed_probe_escalates_cooldown() {
        let mut reg = HealthRegistry::new(1, cfg());
        for t in 0..3 {
            reg.on_failure(0, false, t as f64, "bit-flip");
        }
        // First cooldown: 1000 ns.
        assert_eq!(reg.decide(0, 500.0).0, PathDecision::Skip);
        assert_eq!(reg.decide(0, 1002.0).0, PathDecision::Probe);
        // Probe fails: re-open with doubled cooldown (2000 ns).
        let t = reg
            .on_failure(0, false, 1003.0, "bit-flip")
            .expect("reopens");
        assert_eq!(t.from, BreakerState::HalfOpen);
        assert_eq!(reg.decide(0, 2000.0).0, PathDecision::Skip);
        assert_eq!(reg.decide(0, 3004.0).0, PathDecision::Probe);
        assert_eq!(reg.counters.probe_failures, 1);
    }

    #[test]
    fn permanent_fault_never_half_opens() {
        let mut reg = HealthRegistry::new(2, cfg());
        let t = reg.on_failure(1, true, 5.0, "stuck-lane").expect("trips");
        assert_eq!(t.cause, "stuck-lane");
        // Far past any cooldown: still skipping.
        assert_eq!(reg.decide(1, 1e12).0, PathDecision::Skip);
        let snap = reg.snapshot();
        assert!(snap.banks[1].permanent);
        assert_eq!(snap.open_banks(), 1);
    }

    #[test]
    fn half_open_retrip_escalates_cooldown_to_cap_with_logged_transitions() {
        // Every probe fails. Trip at t=2 (threshold 3, failures at 0/1/2),
        // then each HalfOpen → Open re-trip doubles the cooldown until the
        // 8000 ns cap: probes at 1002, 3002, 7002, 15002 — cooldowns
        // 1000, 2000, 4000, 8000, 8000 (saturated).
        let mut reg = HealthRegistry::new(1, cfg());
        for t in 0..3 {
            reg.on_failure(0, false, t as f64, "bit-flip");
        }
        let probe_times = [1002.0, 3002.0, 7002.0, 15002.0];
        for &at in &probe_times {
            // Just before the cooldown elapses: still skipping.
            assert_eq!(reg.decide(0, at - 1.0).0, PathDecision::Skip, "t={at}");
            let (d, t) = reg.decide(0, at);
            assert_eq!(d, PathDecision::Probe);
            let t = t.expect("cooldown transition");
            assert_eq!((t.from, t.to), (BreakerState::Open, BreakerState::HalfOpen));
            assert_eq!((t.at_ns, t.cause), (at, "cooldown"));
            let t = reg.on_failure(0, false, at, "bit-flip").expect("re-trips");
            assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
            assert_eq!((t.at_ns, t.cause), (at, "bit-flip"));
        }
        // Cooldown saturated at the cap: next probe window opens 8000 ns
        // after the last failed probe, not 16000.
        assert_eq!(reg.decide(0, 23_001.0).0, PathDecision::Skip);
        assert_eq!(reg.decide(0, 23_002.0).0, PathDecision::Probe);
        assert_eq!(reg.counters.probes, 5);
        assert_eq!(reg.counters.probe_failures, 4);
        // Log shape: 1 initial trip + 4 × (cooldown, re-trip) + final cooldown.
        let causes: Vec<&str> = reg.transitions().iter().map(|t| t.cause).collect();
        let mut expect = vec!["bit-flip"];
        for _ in 0..4 {
            expect.extend(["cooldown", "bit-flip"]);
        }
        expect.push("cooldown");
        assert_eq!(causes, expect);
        let snap = reg.snapshot();
        assert_eq!(snap.banks[0].trips, 5);
        assert!(!snap.banks[0].permanent);
    }

    #[test]
    fn permanent_fault_at_half_open_pins_breaker_forever() {
        // The doubling-cooldown ladder runs out of road when a probe hits a
        // hard fault: the HalfOpen → Open trip is logged with its cause and
        // the breaker never half-opens again.
        let mut reg = HealthRegistry::new(2, cfg());
        for t in 0..3 {
            reg.on_failure(0, false, t as f64, "bit-flip");
        }
        assert_eq!(reg.decide(0, 1002.0).0, PathDecision::Probe);
        let t = reg
            .on_failure(0, true, 1002.0, "stuck-lane")
            .expect("trips");
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
        assert_eq!(t.cause, "stuck-lane");
        // Far past every cooldown the ladder could ever reach: still open,
        // still skipping, and the skip is counted.
        let skips_before = reg.counters.breaker_skips;
        assert_eq!(reg.decide(0, 1e12).0, PathDecision::Skip);
        assert_eq!(reg.counters.breaker_skips, skips_before + 1);
        let snap = reg.snapshot();
        assert!(snap.banks[0].permanent);
        assert_eq!(snap.banks[0].trips, 2);
        // The healthy sibling keeps the fraction at one-half.
        assert_eq!(reg.open_domains(), 1);
        assert_eq!(reg.open_fraction(), 0.5);
        assert_eq!(reg.decide(1, 1e12).0, PathDecision::Allow);
    }

    #[test]
    fn open_fraction_tracks_breaker_states() {
        let mut reg = HealthRegistry::new(4, cfg());
        assert_eq!(reg.open_fraction(), 0.0);
        reg.on_failure(0, true, 0.0, "stuck-lane");
        reg.on_failure(1, true, 0.0, "stuck-lane");
        assert_eq!(reg.open_domains(), 2);
        assert_eq!(reg.open_fraction(), 0.5);
        // A half-open breaker is no longer counted as open.
        for t in 0..3 {
            reg.on_failure(2, false, t as f64, "bit-flip");
        }
        assert_eq!(reg.open_fraction(), 0.75);
        assert_eq!(reg.decide(2, 1002.0).0, PathDecision::Probe);
        assert_eq!(reg.open_fraction(), 0.5);
    }

    #[test]
    fn base_ns_offsets_transition_timestamps() {
        let mut reg = HealthRegistry::new(1, cfg());
        reg.set_base_ns(10_000.0);
        let t = reg.on_failure(0, true, 5.0, "stuck-lane").unwrap();
        assert_eq!(t.at_ns, 10_005.0);
    }

    #[test]
    fn round_robin_attribution_is_stable() {
        let mut reg = HealthRegistry::new(3, cfg());
        let seq: Vec<u32> = (0..7).map(|_| reg.assign_domain()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn snapshots_compare_field_by_field() {
        let a = HealthRegistry::new(2, cfg()).snapshot();
        let mut reg = HealthRegistry::new(2, cfg());
        reg.on_failure(0, false, 1.0, "bit-flip");
        assert_ne!(a, reg.snapshot());
        assert_eq!(a, HealthRegistry::new(2, cfg()).snapshot());
    }
}
