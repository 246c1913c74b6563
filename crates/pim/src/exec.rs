//! The PIM kernel execution engine: Alg. 1 generalized to every Table II
//! instruction, both layouts, and both microarchitecture variants.
//!
//! For a kernel of `limbs` limbs over degree-`N` polynomials:
//!
//! - each die group holds `⌈limbs/die_groups⌉` limbs and processes them
//!   sequentially; die groups run in parallel (§VI-B);
//! - within a die group, all banks operate in lockstep, each holding
//!   `C = N/(banks_per_group · 8)` 256-bit chunks per limb;
//! - one iteration processes `G = ⌊B/slots⌋` chunks per polynomial through
//!   the instruction's phases, paying the layout-dependent ACT/PRE cost
//!   per phase (1 with column partitioning, one per polynomial without).
//!
//! Near-bank timing comes from the cycle-level all-bank lockstep DRAM
//! engine; custom-HBM units serve several banks each, so their row switches
//! overlap with streaming from sibling banks and only the streaming time
//! (at 4× external bandwidth) remains exposed (§VII-B).
//!
//! A kernel's per-limb schedule, ACT/PRE count and latency depend only on
//! the device, the layout, the instruction and `N`; the limb count merely
//! scales them. Each executor therefore times a `(instruction, N)` shape
//! once and keeps the clean result in a private table.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dram::energy::{AccessDestination, EnergyAccount};
use dram::engine::{BankCommand, LockstepEngine};

use crate::device::{PimDeviceConfig, PimVariant};
use crate::error::{IntegrityReport, PimError};
use crate::fault::{BankDomain, CommandFaults, FaultInjector};
use crate::isa::PimInstruction;
use crate::layout::LayoutPolicy;

/// A PIM kernel: one instruction applied across `limbs × n` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimKernelSpec {
    /// The instruction.
    pub instr: PimInstruction,
    /// Number of RNS limbs processed.
    pub limbs: usize,
    /// Ring degree.
    pub n: usize,
}

/// Timing and energy of a kernel (or a fused sequence).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PimKernelResult {
    /// Kernel latency in nanoseconds.
    pub latency_ns: f64,
    /// DRAM-side energy events (destination already classified).
    pub dram_energy: EnergyAccount,
    /// Modular ops executed by the MMAC lanes.
    pub mmac_ops: u64,
    /// Total ACT/PRE pairs across all banks and limbs.
    pub acts_total: u64,
    /// Total bytes streamed between banks and PIM units.
    pub bytes_internal: u64,
    /// Sequential limb batches (`⌈limbs/die_groups⌉`): each batch runs one
    /// limb on every die group in parallel, so the kernel's latency divides
    /// evenly across them. The kernel's trace span carries it as its
    /// `limb_batches` argument.
    pub limb_batches: u64,
}

impl PimKernelResult {
    /// Total energy in joules for a device (DRAM events + MMAC compute).
    pub fn energy_joules(&self, dev: &PimDeviceConfig) -> f64 {
        self.dram_energy.total_joules(&dev.dram.energy)
            + self.mmac_ops as f64 * dev.mmac_energy_pj * 1e-12
    }

    /// Accumulates another kernel's result (sequential execution).
    pub fn accumulate(&mut self, other: &PimKernelResult) {
        self.latency_ns += other.latency_ns;
        self.dram_energy.merge(&other.dram_energy);
        self.mmac_ops += other.mmac_ops;
        self.acts_total += other.acts_total;
        self.bytes_internal += other.bytes_internal;
        self.limb_batches += other.limb_batches;
    }
}

/// The clean timing of one limb of a kernel shape.
#[derive(Debug)]
struct LimbTiming {
    /// The per-bank lockstep schedule (what fault injection perturbs).
    sched: Vec<BankCommand>,
    /// ACT/PRE pairs the schedule carries.
    acts_per_bank: u64,
    /// 256-bit chunks each bank reads and writes per limb.
    chunks_per_bank_limb: u64,
    /// The schedule's latency on the device.
    per_limb_ns: f64,
}

/// Clean per-limb timings by `(instruction, N)`, errors included.
type TimingTable = HashMap<(PimInstruction, usize), Result<Rc<LimbTiming>, PimError>>;

/// Executes PIM kernels for a device configuration and layout policy.
///
/// The executor keeps the clean per-limb timing of every `(instruction, N)`
/// shape it has executed, errors included, so a shape is scheduled and
/// timed once per executor. The table is private to the executor: it
/// borrows one device and one layout, so its keys cannot collide across
/// devices.
#[derive(Debug, Clone)]
pub struct PimExecutor<'a> {
    dev: &'a PimDeviceConfig,
    layout: LayoutPolicy,
    table: RefCell<TimingTable>,
}

impl<'a> PimExecutor<'a> {
    /// Binds a device and layout.
    pub fn new(dev: &'a PimDeviceConfig, layout: LayoutPolicy) -> Self {
        Self {
            dev,
            layout,
            table: RefCell::default(),
        }
    }

    /// The device in use.
    pub fn device(&self) -> &PimDeviceConfig {
        self.dev
    }

    /// Banks cooperating within one die group.
    pub fn banks_per_group(&self) -> usize {
        let g = &self.dev.dram.geometry;
        g.dies_per_group() * g.banks_per_die
    }

    /// 256-bit chunks per bank per limb (`C`); the paper's running example
    /// (`N = 2^16` over an A100 stack) gives 16.
    pub fn chunks_per_bank_per_limb(&self, n: usize) -> usize {
        // 8 elements of 32 bits per 256-bit chunk.
        (n.div_ceil(self.banks_per_group())).div_ceil(8).max(1)
    }

    /// Whether the instruction can run with the device's buffer size.
    pub fn supported(&self, instr: PimInstruction) -> bool {
        instr.profile().supported(self.dev.buffer_entries)
    }

    /// GPU-side DRAM traffic (bytes) the same operation would generate if
    /// executed on the GPU with no cache reuse — the Fig. 9 baseline.
    pub fn gpu_bytes_equivalent(&self, spec: &PimKernelSpec) -> u64 {
        let p = spec.instr.profile();
        ((p.total_reads() + p.total_writes()) * spec.limbs * spec.n * 4) as u64
    }

    /// Executes one kernel.
    ///
    /// Returns [`PimError::Unsupported`] if the instruction cannot run at
    /// the configured buffer size (`G = 0`), mirroring the hardware
    /// restriction of §VII-C.
    pub fn execute(&self, spec: &PimKernelSpec) -> Result<PimKernelResult, PimError> {
        let t = self.limb_timing(spec)?;
        Ok(self.account(spec, &t, t.per_limb_ns))
    }

    /// The clean per-limb timing of `spec`'s shape, from the table or
    /// computed and stored on first use.
    fn limb_timing(&self, spec: &PimKernelSpec) -> Result<Rc<LimbTiming>, PimError> {
        self.table
            .borrow_mut()
            .entry((spec.instr, spec.n))
            .or_insert_with(|| {
                let (sched, acts_per_bank) = self.build_limb_schedule(spec.instr, spec.n)?;
                let profile = spec.instr.profile();
                let chunks_per_bank_limb = self.chunks_per_bank_per_limb(spec.n) as u64
                    * (profile.total_reads() + profile.total_writes()) as u64;
                let per_limb_ns = self.time_limb(&sched, acts_per_bank, chunks_per_bank_limb)?;
                Ok(Rc::new(LimbTiming {
                    sched,
                    acts_per_bank,
                    chunks_per_bank_limb,
                    per_limb_ns,
                }))
            })
            .clone()
    }

    /// Builds the per-bank lockstep schedule for ONE limb, plus the ACT/PRE
    /// pairs it carries.
    fn build_limb_schedule(
        &self,
        instr: PimInstruction,
        n: usize,
    ) -> Result<(Vec<BankCommand>, u64), PimError> {
        let profile = instr.profile();
        let b = self.dev.buffer_entries;
        let g = profile.chunk_granularity(b);
        if g < 1 {
            return Err(PimError::Unsupported {
                mnemonic: instr.mnemonic(),
                buffer_entries: b,
            });
        }
        let c = self.chunks_per_bank_per_limb(n);
        let iters = c.div_ceil(g);

        let mut sched: Vec<BankCommand> = Vec::new();
        let mut acts_per_bank = 0u64;
        let mut done = 0usize;
        for _ in 0..iters {
            let g_now = g.min(c - done) as u32;
            done += g_now as usize;
            for (pi, phase) in profile.phases.iter().enumerate() {
                match self.layout {
                    LayoutPolicy::ColumnPartitioned => {
                        sched.push(BankCommand::Act { row: pi as u32 });
                        acts_per_bank += 1;
                        if phase.polys_read > 0 {
                            sched.push(BankCommand::Read {
                                chunks: phase.polys_read as u32 * g_now,
                            });
                        }
                        if phase.polys_written > 0 {
                            sched.push(BankCommand::Write {
                                chunks: phase.polys_written as u32 * g_now,
                            });
                        }
                        sched.push(BankCommand::Pre);
                    }
                    LayoutPolicy::Contiguous => {
                        // One row (hence ACT/PRE) per polynomial (§VI-C).
                        for r in 0..phase.polys_read {
                            sched.push(BankCommand::Act {
                                row: (pi * 64 + r) as u32,
                            });
                            acts_per_bank += 1;
                            sched.push(BankCommand::Read { chunks: g_now });
                            sched.push(BankCommand::Pre);
                        }
                        for w in 0..phase.polys_written {
                            sched.push(BankCommand::Act {
                                row: (pi * 64 + 32 + w) as u32,
                            });
                            acts_per_bank += 1;
                            sched.push(BankCommand::Write { chunks: g_now });
                            sched.push(BankCommand::Pre);
                        }
                    }
                }
            }
        }
        Ok((sched, acts_per_bank))
    }

    /// Times the per-limb schedule on the device's microarchitecture.
    fn time_limb(
        &self,
        sched: &[BankCommand],
        acts_per_bank: u64,
        chunks_per_bank_limb: u64,
    ) -> Result<f64, PimError> {
        Ok(match self.dev.variant {
            PimVariant::NearBank => {
                let engine = LockstepEngine::new(&self.dev.dram, self.dev.ns_per_chunk());
                engine.try_execute(sched)?.latency_ns
            }
            PimVariant::CustomHbm { banks_per_unit } => {
                // The unit streams F banks' chunks back-to-back; row
                // switches of one bank hide behind the streaming of the
                // other F−1, leaving switch-time/F plus one fill exposed.
                let f = banks_per_unit as f64;
                let stream = chunks_per_bank_limb as f64 * f * self.dev.ns_per_chunk();
                let switch_total = acts_per_bank as f64 * self.dev.dram.timing.row_switch();
                stream.max(switch_total / f) + self.dev.dram.timing.row_switch()
            }
        })
    }

    /// Scales per-limb timing to the full kernel and accounts energy and
    /// traffic. Reads only the shape's stored timing, so a table hit
    /// allocates nothing.
    fn account(&self, spec: &PimKernelSpec, t: &LimbTiming, per_limb_ns: f64) -> PimKernelResult {
        let LimbTiming {
            acts_per_bank,
            chunks_per_bank_limb,
            ..
        } = *t;
        let die_groups = self.dev.dram.geometry.die_groups;
        let limbs_per_group = spec.limbs.div_ceil(die_groups);
        let limb_events = spec.limbs as u64 * self.banks_per_group() as u64;
        let mut energy = EnergyAccount::new();
        energy.add_acts(acts_per_bank * limb_events);
        let bytes =
            chunks_per_bank_limb * limb_events * (self.dev.dram.geometry.chunk_bits as u64 / 8);
        let dest = match self.dev.variant {
            PimVariant::NearBank => AccessDestination::NearBank,
            PimVariant::CustomHbm { .. } => AccessDestination::LogicDie,
        };
        energy.add_access(bytes, dest);

        PimKernelResult {
            latency_ns: per_limb_ns * limbs_per_group as f64,
            dram_energy: energy,
            mmac_ops: (spec.n * spec.limbs) as u64 * spec.instr.mmac_ops_per_element() as u64,
            acts_total: acts_per_bank * limb_events,
            bytes_internal: bytes,
            limb_batches: limbs_per_group as u64,
        }
    }

    /// Executes one kernel under fault injection, scoped to a bank health
    /// domain.
    ///
    /// The injector perturbs the lockstep schedule (drops/corruptions),
    /// samples bank-cell bit flips, and pins any stuck MMAC lane. When a
    /// fault fires, the kernel's integrity check fails and the call returns
    /// [`PimError::IntegrityViolation`]; the carried
    /// [`IntegrityReport::wasted`] holds the cost of the failed attempt so
    /// schedulers can charge the retry honestly.
    ///
    /// Fault semantics:
    ///
    /// - **Dropped/corrupted commands**: a copy of the clean schedule is
    ///   perturbed (only when the plan can perturb commands) and timed on
    ///   the lockstep engine; if it violates the DRAM protocol (a dropped
    ///   ACT), the bank aborts and the wasted cost falls back to the clean
    ///   schedule's latency (a conservative bound on the aborted attempt).
    /// - **Bit flips**: caught by the per-PolyGroup residue checksums after
    ///   the kernel (see `bankexec::paccum_alg1_verified` for the
    ///   functional-layer counterpart).
    /// - **Stuck MMAC lane**: only matters for instructions that use the
    ///   lanes; it is a *hard* fault ([`IntegrityReport::is_permanent`]),
    ///   so schedulers should stop retrying on PIM.
    ///
    /// Transient faults (bit flips, command perturbations) are sampled from
    /// the stream as usual and charged to whatever domain ran the kernel,
    /// but a stuck MMAC lane — a *located* hardware fault — only fires when
    /// the kernel's `domain` owns the lane. Bank-scoped schedulers use this
    /// so one sick die group does not poison kernels running on its healthy
    /// siblings. `domain = None` is the unscoped behaviour (the lane hits
    /// every kernel).
    pub fn execute_with_faults(
        &self,
        spec: &PimKernelSpec,
        injector: &mut FaultInjector,
        domain: Option<BankDomain>,
    ) -> Result<PimKernelResult, PimError> {
        let clean = self.limb_timing(spec)?;

        let mut cmd_faults = CommandFaults::default();
        let mut attempt_ns = clean.per_limb_ns;
        if injector.perturbs_commands() {
            let mut perturbed = clean.sched.clone();
            cmd_faults = injector.perturb_commands(&mut perturbed);
            if cmd_faults.any() {
                // A protocol violation aborts the stream mid-kernel; charge
                // the clean latency as an upper bound on the wasted time.
                attempt_ns = self
                    .time_limb(&perturbed, clean.acts_per_bank, clean.chunks_per_bank_limb)
                    .unwrap_or(clean.per_limb_ns);
            }
        }
        let bit_flip = injector.sample_kernel_bit_flip();
        let stuck = injector
            .stuck_lane()
            .filter(|_| spec.instr.mmac_ops_per_element() > 0)
            .filter(|&lane| domain.is_none_or(|d| d.owns_lane(lane)));

        let result = self.account(spec, &clean, attempt_ns);

        if cmd_faults.any() || bit_flip || stuck.is_some() {
            Err(PimError::IntegrityViolation(Box::new(IntegrityReport {
                kernel: spec.instr.mnemonic(),
                bit_flips: bit_flip as u32,
                commands_dropped: cmd_faults.dropped,
                commands_corrupted: cmd_faults.corrupted,
                stuck_lane: stuck,
                wasted: result,
            })))
        } else {
            Ok(result)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb_exec(dev: &PimDeviceConfig) -> PimExecutor<'_> {
        PimExecutor::new(dev, LayoutPolicy::ColumnPartitioned)
    }

    #[test]
    fn paper_running_example_chunk_count() {
        // N = 2^16 over an A100 stack (512 banks): 16 chunks per bank/limb.
        let dev = PimDeviceConfig::a100_near_bank();
        let e = nb_exec(&dev);
        assert_eq!(e.banks_per_group(), 512);
        assert_eq!(e.chunks_per_bank_per_limb(1 << 16), 16);
        // RTX 4090 groups 4 dies × 32 banks = 128 banks: 64 chunks.
        let dev = PimDeviceConfig::rtx4090_near_bank();
        let e = nb_exec(&dev);
        assert_eq!(e.chunks_per_bank_per_limb(1 << 16), 64);
    }

    #[test]
    fn add_kernel_beats_gpu_bandwidth() {
        // An element-wise Add on PIM must beat moving the same bytes over
        // the external bus (the whole premise of the paper).
        let dev = PimDeviceConfig::a100_near_bank();
        let e = nb_exec(&dev);
        let spec = PimKernelSpec {
            instr: PimInstruction::Add,
            limbs: 54,
            n: 1 << 16,
        };
        let r = e.execute(&spec).unwrap();
        let gpu_ns = e.gpu_bytes_equivalent(&spec) as f64 / (dev.dram.external_bw_gbps * 1e9) * 1e9;
        assert!(
            r.latency_ns < gpu_ns,
            "PIM {} ns must beat GPU {} ns",
            r.latency_ns,
            gpu_ns
        );
        // But not by more than the internal bandwidth increase.
        assert!(r.latency_ns * dev.bw_increase > gpu_ns * 0.8);
    }

    #[test]
    fn column_partitioning_outperforms_contiguous() {
        // Fig. 10 (w/o CP): the naive layout roughly doubles element-wise
        // time (2.24×/2.11× in the paper).
        let dev = PimDeviceConfig::a100_near_bank();
        let cp = PimExecutor::new(&dev, LayoutPolicy::ColumnPartitioned);
        let na = PimExecutor::new(&dev, LayoutPolicy::Contiguous);
        let mut ratios = Vec::new();
        for instr in [
            PimInstruction::Add,
            PimInstruction::PMult,
            PimInstruction::PAccum(4),
            PimInstruction::CAccum(4),
        ] {
            let spec = PimKernelSpec {
                instr,
                limbs: 54,
                n: 1 << 16,
            };
            let r_cp = cp.execute(&spec).unwrap();
            let r_na = na.execute(&spec).unwrap();
            ratios.push(r_na.latency_ns / r_cp.latency_ns);
            // Single-poly-per-phase instructions (Add) see no CP benefit;
            // everything else must.
            assert!(r_na.acts_total >= r_cp.acts_total, "{instr}");
        }
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        assert!(
            (1.5..4.0).contains(&geomean),
            "w/o-CP slowdown should be around 2×, got {geomean:.2}"
        );
    }

    #[test]
    fn bigger_buffer_amortizes_act_pre() {
        // Fig. 9: performance improves with B then saturates.
        let base = PimDeviceConfig::a100_near_bank();
        let spec = PimKernelSpec {
            instr: PimInstruction::PAccum(4),
            limbs: 54,
            n: 1 << 16,
        };
        let mut prev = f64::INFINITY;
        for b in [8usize, 16, 32, 64] {
            let dev = base.clone().with_buffer_entries(b);
            let e = nb_exec(&dev);
            let r = e.execute(&spec).unwrap();
            assert!(
                r.latency_ns <= prev * 1.001,
                "B={b} should not be slower than smaller buffer"
            );
            prev = r.latency_ns;
        }
    }

    #[test]
    fn custom_hbm_suffers_less_from_small_buffers() {
        // Fig. 9: saturation is faster for custom-HBM.
        let spec = PimKernelSpec {
            instr: PimInstruction::Add,
            limbs: 54,
            n: 1 << 16,
        };
        let ratio = |mk: fn() -> PimDeviceConfig| {
            let small = mk().with_buffer_entries(4);
            let large = mk().with_buffer_entries(64);
            let t_small = PimExecutor::new(&small, LayoutPolicy::ColumnPartitioned)
                .execute(&spec)
                .unwrap()
                .latency_ns;
            let t_large = PimExecutor::new(&large, LayoutPolicy::ColumnPartitioned)
                .execute(&spec)
                .unwrap()
                .latency_ns;
            t_small / t_large
        };
        let nb_gain = ratio(PimDeviceConfig::a100_near_bank);
        let ch_gain = ratio(PimDeviceConfig::a100_custom_hbm);
        assert!(
            nb_gain > ch_gain,
            "near-bank should benefit more from large B: {nb_gain:.2} vs {ch_gain:.2}"
        );
    }

    #[test]
    fn energy_scales_with_traffic() {
        let dev = PimDeviceConfig::a100_near_bank();
        let e = nb_exec(&dev);
        let small = e
            .execute(&PimKernelSpec {
                instr: PimInstruction::Add,
                limbs: 10,
                n: 1 << 16,
            })
            .unwrap();
        let large = e
            .execute(&PimKernelSpec {
                instr: PimInstruction::Add,
                limbs: 40,
                n: 1 << 16,
            })
            .unwrap();
        let js = small.energy_joules(&dev);
        let jl = large.energy_joules(&dev);
        assert!((jl / js - 4.0).abs() < 0.1, "energy ∝ limbs: {}", jl / js);
        assert_eq!(large.bytes_internal, 4 * small.bytes_internal);
    }

    #[test]
    fn sequence_accumulates() {
        let dev = PimDeviceConfig::a100_near_bank();
        let e = nb_exec(&dev);
        let s1 = PimKernelSpec {
            instr: PimInstruction::Add,
            limbs: 8,
            n: 1 << 16,
        };
        let s2 = PimKernelSpec {
            instr: PimInstruction::Mult,
            limbs: 8,
            n: 1 << 16,
        };
        let (r1, r2) = (e.execute(&s1).unwrap(), e.execute(&s2).unwrap());
        let mut seq = r1.clone();
        seq.accumulate(&r2);
        assert!((seq.latency_ns - (r1.latency_ns + r2.latency_ns)).abs() < 1e-9);
        assert_eq!(seq.mmac_ops, r1.mmac_ops + r2.mmac_ops);
        assert_eq!(seq.acts_total, r1.acts_total + r2.acts_total);
        assert_eq!(seq.bytes_internal, r1.bytes_internal + r2.bytes_internal);
        assert_eq!(seq.limb_batches, r1.limb_batches + r2.limb_batches);
        let joules = seq.energy_joules(&dev);
        let parts = r1.energy_joules(&dev) + r2.energy_joules(&dev);
        assert!((joules - parts).abs() <= 1e-12 * parts.abs());
    }

    #[test]
    fn stuck_lane_only_fires_in_its_own_domain() {
        use crate::fault::{FaultInjector, FaultPlan};
        let dev = PimDeviceConfig::a100_near_bank();
        let e = nb_exec(&dev);
        let spec = PimKernelSpec {
            instr: PimInstruction::Add,
            limbs: 8,
            n: 1 << 16,
        };
        let plan = FaultPlan::none().with_seed(2).with_stuck_lane(5);
        let domains = 4u32;
        let sick = BankDomain::of_lane(5, domains);

        // The owning domain sees the hard fault…
        let mut inj = FaultInjector::new(plan);
        let err = e
            .execute_with_faults(&spec, &mut inj, Some(sick))
            .unwrap_err();
        match err {
            PimError::IntegrityViolation(r) => {
                assert!(r.is_permanent());
                assert_eq!(r.cause(), "stuck-lane");
            }
            other => panic!("expected IntegrityViolation, got {other}"),
        }

        // …while every other domain executes cleanly.
        for idx in (0..domains).filter(|&i| i != sick.index) {
            let mut inj = FaultInjector::new(plan);
            let healthy = BankDomain::new(idx, domains);
            e.execute_with_faults(&spec, &mut inj, Some(healthy))
                .unwrap_or_else(|err| panic!("domain {idx} must be healthy: {err}"));
        }

        // And the unscoped path still hits everything.
        let mut inj = FaultInjector::new(plan);
        assert!(e.execute_with_faults(&spec, &mut inj, None).is_err());
    }

    /// Asserts two kernel outcomes are equal, with `latency_ns` bit-equal.
    fn assert_same(a: &Result<PimKernelResult, PimError>, b: &Result<PimKernelResult, PimError>) {
        assert_eq!(a, b);
        let bits = |r: &Result<PimKernelResult, PimError>| match r {
            Ok(r) => Some(r.latency_ns.to_bits()),
            Err(PimError::IntegrityViolation(v)) => Some(v.wasted.latency_ns.to_bits()),
            Err(_) => None,
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn reused_executor_matches_fresh_executor() {
        // Every Table II shape on every device and layout, at the default
        // buffer and at B = 4 (where some shapes are unsupported): the
        // second and third call on one executor read its table and must
        // return exactly what a fresh executor computes.
        let mut unsupported = 0;
        for base in PimDeviceConfig::all() {
            for dev in [base.clone(), base.with_buffer_entries(4)] {
                for layout in [LayoutPolicy::ColumnPartitioned, LayoutPolicy::Contiguous] {
                    let reused = PimExecutor::new(&dev, layout);
                    for instr in PimInstruction::table2(4) {
                        for limbs in [1, 7, 54] {
                            for n in [1 << 12, 1 << 16] {
                                let spec = PimKernelSpec { instr, limbs, n };
                                let fresh = PimExecutor::new(&dev, layout).execute(&spec);
                                unsupported += usize::from(fresh.is_err());
                                for _ in 0..3 {
                                    assert_same(&reused.execute(&spec), &fresh);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(unsupported > 0, "B = 4 must leave some shape unsupported");
    }

    #[test]
    fn reused_executor_draws_the_same_fault_stream() {
        use crate::fault::{FaultInjector, FaultPlan};
        let dev = PimDeviceConfig::a100_near_bank();
        let reused = nb_exec(&dev);
        let specs: Vec<PimKernelSpec> = PimInstruction::table2(4)
            .into_iter()
            .cycle()
            .take(60)
            .enumerate()
            .map(|(i, instr)| PimKernelSpec {
                instr,
                limbs: [1, 7, 54][i % 3],
                n: 1 << 16,
            })
            .collect();
        for plan in [
            FaultPlan::none().with_seed(7).with_cmd_drops(0.01),
            FaultPlan::none().with_seed(7).with_bank_flips(0.3),
        ] {
            let mut inj_reused = FaultInjector::new(plan);
            let mut inj_fresh = FaultInjector::new(plan);
            let mut faults = 0;
            for spec in &specs {
                let a = reused.execute_with_faults(spec, &mut inj_reused, None);
                let b = nb_exec(&dev).execute_with_faults(spec, &mut inj_fresh, None);
                assert_same(&a, &b);
                assert_eq!(inj_reused.stats(), inj_fresh.stats());
                faults += usize::from(a.is_err());
            }
            assert!(faults > 0, "{plan:?} must fire on some kernel");
        }
    }

    #[test]
    fn unsupported_at_small_buffer_is_typed_error() {
        let dev = PimDeviceConfig::a100_near_bank().with_buffer_entries(4);
        let e = nb_exec(&dev);
        let err = e
            .execute(&PimKernelSpec {
                instr: PimInstruction::PAccum(4),
                limbs: 1,
                n: 1 << 16,
            })
            .unwrap_err();
        assert_eq!(
            err,
            PimError::Unsupported {
                mnemonic: "PAccum<4>".into(),
                buffer_entries: 4
            }
        );
        assert_eq!(err.to_string(), "PAccum<4> unsupported with B = 4");
    }
}
