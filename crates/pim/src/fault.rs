//! Seedable, deterministic fault injection for the PIM model.
//!
//! Real in-memory compute must contend with faulty lanes, dropped commands,
//! and cell corruption that a clean simulator never exercises. This module
//! provides the knobs: a [`FaultPlan`] describes *what* can go wrong and how
//! often, and a [`FaultInjector`] samples concrete fault events from it with
//! a self-contained SplitMix64 stream — the same seed and plan always yield
//! the same faults, so figure runs and regression tests stay reproducible.
//!
//! Three fault classes (mirroring the reliability literature on deployed
//! PIM systems):
//!
//! - **Bank cell bit flips** — a random bit of a random stored chunk is
//!   inverted ([`FaultInjector::maybe_corrupt_bank`]), caught afterwards by the
//!   per-PolyGroup residue checksums.
//! - **Stuck MMAC lanes** — one of the eight 28-bit lanes behind the
//!   256-bit global I/O always drives its stuck value (a *hard* fault;
//!   retrying on PIM cannot help).
//! - **Command drops/corruption** — entries of the per-bank lockstep
//!   schedule are deleted or perturbed ([`FaultInjector::perturb_commands`]).
//!
//! The plan also carries the *GPU-side* fault domain so a chaos storm can
//! exercise both executors of a hybrid schedule:
//!
//! - **Stream stalls** — a GPU kernel's stream hiccups and the kernel takes
//!   `gpu_stall_ns` longer ([`FaultInjector::sample_gpu_stall`]); purely a
//!   latency event, the result stays correct.
//! - **Transfer bit flips** — a result transfer off the GPU is silently
//!   corrupted ([`FaultInjector::sample_gpu_transfer_flip`]). Unlike PIM
//!   faults there is no per-kernel residue checksum on this path, so the
//!   corruption is only caught by the *end-to-end* integrity verdict the
//!   scheduler attaches to its report.

use crate::bankexec::{SimulatedBank, ELEMS_PER_CHUNK};
use crate::layout::PolyGroup;
use dram::engine::BankCommand;

/// Per-run fault configuration. `FaultPlan::none()` (also `Default`)
/// disables every fault class.
///
/// ```
/// use pim::fault::FaultPlan;
///
/// let plan = FaultPlan::none()
///     .with_seed(23)
///     .with_bank_flips(0.01)
///     .with_stuck_lane(3);
/// assert!(!plan.is_benign());
///
/// // Derived streams re-seed deterministically: the same (seed, salt)
/// // always yields the same stream, independent of execution order.
/// assert_eq!(plan.derive_stream(5).seed, plan.derive_stream(5).seed);
/// assert_ne!(plan.derive_stream(5).seed, plan.derive_stream(6).seed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability (per kernel) that a stored bank cell suffers a bit flip.
    pub bank_flip_prob: f64,
    /// A permanently stuck MMAC lane (0..8), if any.
    pub stuck_lane: Option<u8>,
    /// Probability (per bank command) that the command is dropped.
    pub cmd_drop_prob: f64,
    /// Probability (per bank command) that the command is corrupted
    /// (wrong row on ACT, wrong chunk count on RD/WR).
    pub cmd_corrupt_prob: f64,
    /// Probability (per GPU kernel) that the kernel's stream stalls and the
    /// kernel takes [`gpu_stall_ns`](Self::gpu_stall_ns) longer.
    pub gpu_stall_prob: f64,
    /// Extra latency charged when a GPU stream stall fires.
    pub gpu_stall_ns: f64,
    /// Probability (per GPU kernel) that the kernel's result transfer is
    /// silently corrupted — caught only by the end-to-end integrity
    /// verdict, never by a per-kernel check.
    pub gpu_flip_prob: f64,
}

impl FaultPlan {
    /// Derives an independent fault stream for a sub-unit of work (one
    /// serving request, one shard): the same plan with a new seed mixed
    /// deterministically from the base seed and `salt`. Outcomes of derived
    /// streams never depend on the order the units execute in, which is
    /// what keeps a multi-request chaos soak bit-reproducible.
    pub fn derive_stream(mut self, salt: u64) -> Self {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.seed = z ^ (z >> 31);
        self
    }

    /// A benign plan: no faults.
    pub fn none() -> Self {
        Self {
            seed: 0,
            bank_flip_prob: 0.0,
            stuck_lane: None,
            cmd_drop_prob: 0.0,
            cmd_corrupt_prob: 0.0,
            gpu_stall_prob: 0.0,
            gpu_stall_ns: 0.0,
            gpu_flip_prob: 0.0,
        }
    }

    /// Sets the fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-kernel bank bit-flip probability.
    pub fn with_bank_flips(mut self, prob: f64) -> Self {
        self.bank_flip_prob = prob;
        self
    }

    /// Sticks one MMAC lane.
    pub fn with_stuck_lane(mut self, lane: u8) -> Self {
        assert!((lane as usize) < ELEMS_PER_CHUNK, "lanes are 0..8");
        self.stuck_lane = Some(lane);
        self
    }

    /// Sets the per-command drop probability.
    pub fn with_cmd_drops(mut self, prob: f64) -> Self {
        self.cmd_drop_prob = prob;
        self
    }

    /// Sets the per-command corruption probability.
    pub fn with_cmd_corruption(mut self, prob: f64) -> Self {
        self.cmd_corrupt_prob = prob;
        self
    }

    /// Enables GPU stream stalls: with probability `prob` per GPU kernel,
    /// the kernel takes `stall_ns` longer.
    pub fn with_gpu_stalls(mut self, prob: f64, stall_ns: f64) -> Self {
        assert!(stall_ns >= 0.0, "stall latency must be non-negative");
        self.gpu_stall_prob = prob;
        self.gpu_stall_ns = stall_ns;
        self
    }

    /// Sets the per-GPU-kernel transfer bit-flip probability.
    pub fn with_gpu_transfer_flips(mut self, prob: f64) -> Self {
        self.gpu_flip_prob = prob;
        self
    }

    /// Whether the plan can produce any fault at all.
    pub fn is_benign(&self) -> bool {
        self.bank_flip_prob <= 0.0
            && self.stuck_lane.is_none()
            && self.cmd_drop_prob <= 0.0
            && self.cmd_corrupt_prob <= 0.0
            && self.gpu_stall_prob <= 0.0
            && self.gpu_flip_prob <= 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// The health domain a PIM kernel is attributed to, for per-bank fault
/// accounting. The device's die groups are the natural domain granularity:
/// all banks of a die group operate in lockstep, so a fault observed by a
/// kernel is charged to the die group that ran it. Hardware faults with a
/// physical location (a stuck MMAC lane) map onto a domain via
/// [`BankDomain::of_lane`], so a bank-scoped scheduler can route around the
/// sick group while its siblings keep serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankDomain {
    /// Domain index in `0..count`.
    pub index: u32,
    /// Total health domains (die groups) on the device.
    pub count: u32,
}

impl BankDomain {
    /// A domain handle; `index` must be below `count`.
    pub fn new(index: u32, count: u32) -> Self {
        assert!(index < count, "domain {index} out of range (count {count})");
        Self { index, count }
    }

    /// The domain that owns a physical MMAC lane.
    pub fn of_lane(lane: u8, count: u32) -> Self {
        assert!(count > 0, "at least one domain");
        Self {
            index: lane as u32 % count,
            count,
        }
    }

    /// Whether a stuck lane lives inside this domain.
    pub fn owns_lane(&self, lane: u8) -> bool {
        lane as u32 % self.count == self.index
    }
}

/// One injected bank cell bit flip, for logging/assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// Bank row of the flipped cell.
    pub row: usize,
    /// Chunk column within the row.
    pub col: usize,
    /// Element (lane) within the chunk.
    pub elem: usize,
    /// Bit index within the 32-bit element.
    pub bit: u8,
}

/// What `perturb_commands` did to a schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandFaults {
    /// Commands deleted.
    pub dropped: u32,
    /// Commands altered in place.
    pub corrupted: u32,
}

impl CommandFaults {
    /// Whether any command fault fired.
    pub fn any(&self) -> bool {
        self.dropped > 0 || self.corrupted > 0
    }
}

/// Running totals across a fault injector's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Bank cell bit flips injected.
    pub bit_flips: u64,
    /// Bank commands dropped.
    pub commands_dropped: u64,
    /// Bank commands corrupted.
    pub commands_corrupted: u64,
    /// GPU stream stalls injected.
    pub gpu_stalls: u64,
    /// GPU transfer bit flips injected.
    pub gpu_transfer_flips: u64,
}

/// Samples concrete fault events from a [`FaultPlan`].
///
/// Internally a SplitMix64 stream — deliberately *not* the workspace `rand`
/// crate, so the fault sequence is pinned by this module alone and the
/// non-dev dependency graph of `pim` stays unchanged.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            // Offset so seed 0 still produces a lively stream.
            state: plan.seed ^ 0x9E37_79B9_7F4A_7C15,
            stats: FaultStats::default(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Totals injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The stuck lane, if the plan configures one.
    pub fn stuck_lane(&self) -> Option<u8> {
        self.plan.stuck_lane
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Unconditionally flips one random bit inside the group's allocation,
    /// returning its coordinates. Used by tests and by
    /// [`maybe_corrupt_bank`](Self::maybe_corrupt_bank).
    pub fn flip_group_bit(&mut self, bank: &mut SimulatedBank, g: &PolyGroup) -> BitFlip {
        let poly = self.below(g.polys as u64) as usize;
        let chunk = self.below(g.chunks_per_poly as u64) as usize;
        let elem = self.below(ELEMS_PER_CHUNK as u64) as usize;
        let bit = self.below(32) as u8;
        let row = g.row_of(poly, chunk);
        let col = g.col_of(poly, chunk);
        bank.flip_bit(row, col, elem, bit);
        self.stats.bit_flips += 1;
        BitFlip {
            row,
            col,
            elem,
            bit,
        }
    }

    /// With probability `bank_flip_prob`, flips one random bit inside the
    /// group's allocation.
    pub fn maybe_corrupt_bank(
        &mut self,
        bank: &mut SimulatedBank,
        g: &PolyGroup,
    ) -> Option<BitFlip> {
        let p = self.plan.bank_flip_prob;
        if self.chance(p) {
            Some(self.flip_group_bit(bank, g))
        } else {
            None
        }
    }

    /// Abstract form of [`maybe_corrupt_bank`](Self::maybe_corrupt_bank) for
    /// the timing model, where no functional [`SimulatedBank`] backs the
    /// kernel's data: with probability `bank_flip_prob`, reports that a
    /// stored-cell bit flip hit the kernel's operands (and counts it in
    /// [`FaultStats::bit_flips`]).
    pub fn sample_kernel_bit_flip(&mut self) -> bool {
        let p = self.plan.bank_flip_prob;
        if self.chance(p) {
            self.stats.bit_flips += 1;
            true
        } else {
            false
        }
    }

    /// With probability `gpu_stall_prob`, reports a GPU stream stall and
    /// returns the extra latency to charge (and counts it in
    /// [`FaultStats::gpu_stalls`]). Probability-zero plans draw nothing
    /// from the stream, so enabling the GPU domain later cannot perturb
    /// PIM-only fault sequences.
    pub fn sample_gpu_stall(&mut self) -> Option<f64> {
        if self.chance(self.plan.gpu_stall_prob) {
            self.stats.gpu_stalls += 1;
            Some(self.plan.gpu_stall_ns)
        } else {
            None
        }
    }

    /// With probability `gpu_flip_prob`, reports that the kernel's result
    /// transfer was silently corrupted (and counts it in
    /// [`FaultStats::gpu_transfer_flips`]). The caller is responsible for
    /// failing the end-to-end integrity verdict — there is no per-kernel
    /// detection on the GPU path.
    pub fn sample_gpu_transfer_flip(&mut self) -> bool {
        if self.chance(self.plan.gpu_flip_prob) {
            self.stats.gpu_transfer_flips += 1;
            true
        } else {
            false
        }
    }

    /// Whether [`perturb_commands`](Self::perturb_commands) can touch a
    /// schedule. When it cannot, it draws nothing from the stream either, so
    /// callers may skip it (and the schedule copy it would perturb).
    pub fn perturbs_commands(&self) -> bool {
        !(self.plan.cmd_drop_prob <= 0.0 && self.plan.cmd_corrupt_prob <= 0.0)
    }

    /// Drops/corrupts entries of a lockstep bank-command schedule in place.
    pub fn perturb_commands(&mut self, cmds: &mut Vec<BankCommand>) -> CommandFaults {
        let mut faults = CommandFaults::default();
        if !self.perturbs_commands() {
            return faults;
        }
        let mut i = 0;
        while i < cmds.len() {
            if self.chance(self.plan.cmd_drop_prob) {
                cmds.remove(i);
                faults.dropped += 1;
                continue;
            }
            if self.chance(self.plan.cmd_corrupt_prob) {
                cmds[i] = match cmds[i] {
                    BankCommand::Act { row } => BankCommand::Act { row: row ^ 1 },
                    BankCommand::Read { chunks } => BankCommand::Read {
                        chunks: chunks.saturating_add(1),
                    },
                    BankCommand::Write { chunks } => BankCommand::Write {
                        chunks: chunks.saturating_add(1),
                    },
                    BankCommand::Pre => BankCommand::Pre,
                };
                faults.corrupted += 1;
            }
            i += 1;
        }
        self.stats.commands_dropped += faults.dropped as u64;
        self.stats.commands_corrupted += faults.corrupted as u64;
        faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{LayoutPolicy, PolyGroupAllocator};

    fn small_group() -> (SimulatedBank, PolyGroup) {
        let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
        let g = alloc.alloc(2, 16);
        (SimulatedBank::new(64, 32), g)
    }

    #[test]
    fn same_seed_same_faults() {
        let plan = FaultPlan::none()
            .with_seed(42)
            .with_bank_flips(0.7)
            .with_cmd_drops(0.2)
            .with_cmd_corruption(0.2);
        let run = || {
            let mut inj = FaultInjector::new(plan);
            let (mut bank, g) = small_group();
            let flips: Vec<Option<BitFlip>> = (0..16)
                .map(|_| inj.maybe_corrupt_bank(&mut bank, &g))
                .collect();
            let mut cmds = vec![
                BankCommand::Act { row: 0 },
                BankCommand::Read { chunks: 4 },
                BankCommand::Write { chunks: 2 },
                BankCommand::Pre,
            ];
            let f = inj.perturb_commands(&mut cmds);
            (flips, cmds, f, inj.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn benign_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(inj.plan().is_benign());
        let (mut bank, g) = small_group();
        for _ in 0..100 {
            assert_eq!(inj.maybe_corrupt_bank(&mut bank, &g), None);
        }
        let mut cmds = vec![BankCommand::Act { row: 0 }, BankCommand::Pre];
        assert!(!inj.perturb_commands(&mut cmds).any());
        assert_eq!(cmds.len(), 2);
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn bit_flip_changes_exactly_one_checksum() {
        let (mut bank, g) = small_group();
        let before = bank.checksum_group(&g);
        let mut inj = FaultInjector::new(FaultPlan::none().with_seed(7));
        let flip = inj.flip_group_bit(&mut bank, &g);
        assert!(flip.bit < 32 && flip.elem < ELEMS_PER_CHUNK);
        assert_ne!(bank.checksum_group(&g), before, "checksum must catch it");
        // Flipping the same bit back restores the checksum.
        bank.flip_bit(flip.row, flip.col, flip.elem, flip.bit);
        assert_eq!(bank.checksum_group(&g), before);
    }

    #[test]
    fn command_drops_shrink_schedule() {
        let plan = FaultPlan::none().with_seed(3).with_cmd_drops(1.0);
        let mut inj = FaultInjector::new(plan);
        let mut cmds = vec![BankCommand::Act { row: 1 }; 10];
        let f = inj.perturb_commands(&mut cmds);
        assert_eq!(f.dropped, 10);
        assert!(cmds.is_empty());
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let base = FaultPlan::none().with_seed(9).with_bank_flips(0.5);
        let a = base.derive_stream(1);
        let b = base.derive_stream(2);
        assert_eq!(a, base.derive_stream(1), "same salt, same stream");
        assert_ne!(a.seed, b.seed, "different salts diverge");
        assert_ne!(a.seed, base.seed, "salt 1 must not be the identity");
        assert_eq!(a.bank_flip_prob, base.bank_flip_prob, "plan knobs survive");
        // Even salt 0 reseeds: the derived stream is never the parent's.
        assert_ne!(base.derive_stream(0).seed, base.seed);
    }

    #[test]
    fn bank_domain_lane_ownership() {
        let d = BankDomain::of_lane(5, 4);
        assert_eq!(d.index, 1);
        assert!(d.owns_lane(5));
        assert!(d.owns_lane(1));
        assert!(!d.owns_lane(2));
        assert!(!BankDomain::new(0, 4).owns_lane(5));
    }

    #[test]
    fn stuck_lane_is_validated() {
        let plan = FaultPlan::none().with_stuck_lane(7);
        assert_eq!(FaultInjector::new(plan).stuck_lane(), Some(7));
        assert!(!plan.is_benign());
    }

    #[test]
    fn gpu_faults_make_a_plan_non_benign() {
        assert!(!FaultPlan::none().with_gpu_stalls(0.1, 500.0).is_benign());
        assert!(!FaultPlan::none().with_gpu_transfer_flips(0.1).is_benign());
        // Zero-probability GPU knobs stay benign.
        assert!(FaultPlan::none().with_gpu_stalls(0.0, 500.0).is_benign());
        assert!(FaultPlan::none().with_gpu_transfer_flips(0.0).is_benign());
    }

    #[test]
    fn gpu_fault_sampling_is_deterministic() {
        let plan = FaultPlan::none()
            .with_seed(77)
            .with_gpu_stalls(0.4, 1500.0)
            .with_gpu_transfer_flips(0.3);
        let run = || {
            let mut inj = FaultInjector::new(plan);
            let events: Vec<(Option<f64>, bool)> = (0..64)
                .map(|_| (inj.sample_gpu_stall(), inj.sample_gpu_transfer_flip()))
                .collect();
            (events, inj.stats())
        };
        let (events, stats) = run();
        assert_eq!(run(), (events.clone(), stats), "same seed, same GPU faults");
        assert!(stats.gpu_stalls > 0 && stats.gpu_transfer_flips > 0);
        assert!(events
            .iter()
            .all(|(s, _)| s.is_none() || *s == Some(1500.0)));
    }

    #[test]
    fn zero_probability_gpu_knobs_consume_no_stream() {
        // A PIM-only plan must sample identically whether or not the GPU
        // sites also poll the injector: chance(0) short-circuits.
        let plan = FaultPlan::none().with_seed(13).with_bank_flips(0.5);
        let mut plain = FaultInjector::new(plan);
        let mut polled = FaultInjector::new(plan);
        let a: Vec<bool> = (0..32).map(|_| plain.sample_kernel_bit_flip()).collect();
        let b: Vec<bool> = (0..32)
            .map(|_| {
                assert_eq!(polled.sample_gpu_stall(), None);
                assert!(!polled.sample_gpu_transfer_flip());
                polled.sample_kernel_bit_flip()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn derive_stream_round_trips_gpu_knobs() {
        let base = FaultPlan::none()
            .with_seed(21)
            .with_bank_flips(0.05)
            .with_gpu_stalls(0.2, 2500.0)
            .with_gpu_transfer_flips(0.1);
        let d = base.derive_stream(9);
        assert_eq!(d, base.derive_stream(9), "same salt, same derived plan");
        assert_ne!(d.seed, base.seed);
        // Every knob except the seed survives derivation.
        assert_eq!(
            FaultPlan {
                seed: base.seed,
                ..d
            },
            base,
            "derive_stream must only reseed"
        );
    }
}
