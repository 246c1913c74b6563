//! The stream-ordered GPU↔PIM scheduler (§V-C).
//!
//! Ops execute in issue order: GPU kernels run through the roofline model
//! with the object-granularity L2 filtering DRAM traffic; consecutive PIM
//! ops form one PIM run (large granularity, hundreds of µs); each GPU↔PIM
//! transition pays the stream-queue handoff of ~2 µs, which §V-C shows is
//! negligible at PIM-kernel granularity.
//!
//! One loop visits the ops, and a [`ScheduleMode`] only decides where each
//! op starts: [`ScheduleMode::Serial`] keeps one clock for both engines,
//! [`ScheduleMode::Pipelined`] keeps a cursor per engine plus a data
//! dependency horizon. Every PIM kernel goes through one routine and every
//! kernel PIM cannot complete through one GPU fallback.
//!
//! With a [`FaultPlan`] attached, every PIM kernel runs under fault
//! injection and its post-kernel integrity check can fail. The scheduler
//! then degrades gracefully instead of propagating the failure: transient
//! faults are retried under the configured [`RetryPolicy`] (default: the
//! legacy [`MAX_PIM_RETRIES`] immediate retries), and whatever still fails
//! re-executes on the GPU. Every wasted attempt, backoff, and GPU
//! re-execution is charged to the timeline and recorded as a degraded
//! segment.
//!
//! What a hard fault (a stuck MMAC lane) does depends on the run's gate.
//! Without a registry, it switches PIM off for the rest of the run. With a
//! [`HealthRegistry`] in [`RunOptions::health`], degradation is
//! *bank-scoped and stateful*: each PIM kernel is attributed to a bank
//! health domain (die group), integrity failures feed that domain's
//! circuit breaker, open breakers route their kernels straight to the GPU
//! while healthy domains keep serving PIM traffic, and half-open probes
//! bring recovered banks back. A hard fault opens only the owning domain's
//! breaker — permanently. The registry persists across runs, which is how
//! the serving layer makes per-bank decisions *over time*.

use gpu::cache::{IdMap, L2Cache};
use gpu::kernel::{KernelClass, KernelDesc};
use gpu::model::GpuModel;
use pim::device::PimDeviceConfig;
use pim::error::PimError;
use pim::exec::{PimExecutor, PimKernelResult, PimKernelSpec};
use pim::fault::{BankDomain, FaultInjector, FaultPlan};
use pim::layout::LayoutPolicy;

use crate::error::RunError;
use crate::health::{BreakerTransition, HealthRegistry, PathDecision, RetryPolicy};
use crate::ir::{Executor, Op, OpKind, OpSequence};
use crate::report::{ExecutionReport, GanttSegment};
use crate::telemetry::Telemetry;

/// GPU↔PIM transition cost (§V-C: "a couple of microseconds").
pub const TRANSITION_NS: f64 = 2000.0;

/// Legacy default: PIM retries granted to a kernel after transient
/// integrity failures before it falls back to the GPU. Schedulers built
/// without an explicit [`RetryPolicy`] behave exactly as if
/// `RetryPolicy::fixed(MAX_PIM_RETRIES)` were configured.
pub const MAX_PIM_RETRIES: u32 = 2;

/// How the scheduler lays kernels onto the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// One timeline: every GPU↔PIM handoff serializes the two engines
    /// (the paper's deliberate §V-C design). The default, and
    /// bit-identical to the pre-mode scheduler.
    #[default]
    Serial,
    /// Two virtual streams (GPU, PIM): data-independent work overlaps in
    /// virtual time, and only dependencies that actually cross streams pay
    /// the `TRANSITION_NS` handoff. Models the double-buffered stream
    /// pipelining of GPU FHE libraries; §V-C bounds its win on
    /// bootstrapping below 1.35×.
    Pipelined,
}

/// The inputs that may differ between two runs of the same configuration.
/// `RunOptions::default()` is a plain run: no registry, no telemetry, no
/// budget, and the configured fault plan.
#[derive(Debug, Default)]
pub struct RunOptions<'r> {
    /// Per-bank circuit breaking: PIM kernels are attributed to the
    /// registry's bank domains, failures feed the domain breakers, and
    /// kernels whose breaker is open skip PIM and run on the GPU directly.
    /// The registry persists state across runs, so repeated runs (e.g.
    /// serving requests) accumulate health history; breaker transitions
    /// land in the report. `None` gates PIM with a per-run kill switch
    /// that the first hard fault trips.
    pub health: Option<&'r mut HealthRegistry>,
    /// Telemetry sink: every kernel attempt, handoff, and backoff is
    /// recorded as a virtual-time span, and breaker transitions land on the
    /// trace's `health` track. The counters the report holds are folded
    /// into the metrics once, when the run completes
    /// ([`Telemetry::run_complete`]). Recording happens only on the serial
    /// scheduling loop, so the exported trace is bit-identical across
    /// thread counts.
    pub telemetry: Option<&'r mut Telemetry>,
    /// Deadline budget in virtual ns: at every segment boundary the
    /// scheduler checks the clock, and a run that is already past its
    /// budget stops there with [`ExecutionReport::cancelled`] set instead
    /// of burning the remaining cost. A run whose last segment finishes
    /// late is *not* cancelled — the work is done, so it reports as an
    /// ordinary late completion.
    pub budget_ns: Option<f64>,
    /// This run's fault plan (e.g. one serving request's derived stream);
    /// replaces the configured plan when set.
    pub fault: Option<FaultPlan>,
}

impl RunOptions<'_> {
    /// The same options for one run of several: the registry and the
    /// telemetry sink are reborrowed, budget and fault plan copied.
    pub fn reborrow(&mut self) -> RunOptions<'_> {
        RunOptions {
            health: self.health.as_deref_mut(),
            telemetry: self.telemetry.as_deref_mut(),
            budget_ns: self.budget_ns,
            fault: self.fault,
        }
    }
}

/// Scheduler binding the execution engines.
#[derive(Debug)]
pub struct Scheduler<'a> {
    gpu: &'a GpuModel,
    pim: Option<(&'a PimDeviceConfig, LayoutPolicy)>,
    fault: Option<FaultPlan>,
    retry: RetryPolicy,
    mode: ScheduleMode,
}

impl<'a> Scheduler<'a> {
    /// GPU-only scheduling.
    pub fn gpu_only(gpu: &'a GpuModel) -> Self {
        Self {
            gpu,
            pim: None,
            fault: None,
            retry: RetryPolicy::fixed(MAX_PIM_RETRIES),
            mode: ScheduleMode::Serial,
        }
    }

    /// GPU + PIM co-execution.
    pub fn with_pim(gpu: &'a GpuModel, dev: &'a PimDeviceConfig, layout: LayoutPolicy) -> Self {
        Self {
            pim: Some((dev, layout)),
            ..Self::gpu_only(gpu)
        }
    }

    /// Selects the timeline discipline. [`ScheduleMode::Serial`] (the
    /// default) is bit-identical to the pre-mode scheduler;
    /// [`ScheduleMode::Pipelined`] overlaps independent work across two
    /// virtual streams. Pipelined has no effect without a PIM device —
    /// GPU-only sequences have a single stream either way.
    pub fn with_mode(mut self, mode: ScheduleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches a fault plan: PIM kernels run under fault injection and
    /// degrade to the GPU when their integrity checks fail; GPU kernels
    /// draw stream stalls and transfer flips.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Overrides the retry discipline for transient PIM failures. The
    /// default, [`RetryPolicy::fixed`]`(MAX_PIM_RETRIES)`, reproduces the
    /// legacy immediate-retry behaviour bit-for-bit.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Runs the sequence with default [`RunOptions`].
    pub fn run(&self, seq: &OpSequence) -> Result<ExecutionReport, RunError> {
        self.run_with(seq, RunOptions::default())
    }

    /// Runs the sequence breaker-gated through `registry`
    /// ([`RunOptions::health`]).
    pub fn run_with_health(
        &self,
        seq: &OpSequence,
        registry: &mut HealthRegistry,
    ) -> Result<ExecutionReport, RunError> {
        self.run_with(
            seq,
            RunOptions {
                health: Some(registry),
                ..RunOptions::default()
            },
        )
    }

    /// Runs the sequence and produces a report.
    ///
    /// Fails only on errors no fallback can absorb (e.g. a PIM instruction
    /// unsupported at the configured buffer size), or with
    /// [`RunError::HealthDomainMismatch`] if the registry was sized for a
    /// different device; integrity-check failures under a fault plan are
    /// handled by retry/degradation and recorded in the report instead.
    pub fn run_with(
        &self,
        seq: &OpSequence,
        opts: RunOptions<'_>,
    ) -> Result<ExecutionReport, RunError> {
        let gate = match opts.health {
            Some(reg) => {
                self.check_domains(reg)?;
                Gate::Breakers(reg)
            }
            None => Gate::KillSwitch { tripped: false },
        };
        let pipelined = self.mode == ScheduleMode::Pipelined && self.pim.is_some();
        Run {
            sched: self,
            n: seq.params.n() as u64,
            report: ExecutionReport::default(),
            cache: L2Cache::new(self.gpu.config().l2_bytes),
            injector: opts.fault.or(self.fault).map(FaultInjector::new),
            gate,
            tel: opts.telemetry,
            budget_ns: opts.budget_ns,
            tl: Timeline::new(pipelined),
            pim: self.pim.map(|(dev, layout)| PimExecutor::new(dev, layout)),
        }
        .schedule(seq)
    }

    fn check_domains(&self, registry: &HealthRegistry) -> Result<(), RunError> {
        if let Some((dev, _)) = self.pim {
            let device = dev.dram.geometry.die_groups;
            if registry.domains() != device {
                return Err(RunError::HealthDomainMismatch {
                    registry: registry.domains(),
                    device,
                });
            }
        }
        Ok(())
    }

    /// Integer ops a GPU kernel of this kind executes (one modmul ≈ 8
    /// 32-bit mul-adds plus surrounding adds, §III-A D2).
    fn int_ops(&self, kind: &OpKind, n: u64) -> u64 {
        match *kind {
            OpKind::Ntt { limbs } | OpKind::Intt { limbs } => {
                let log_n = 63 - n.leading_zeros() as u64;
                limbs as u64 * (n / 2) * log_n * 10
            }
            OpKind::BConv {
                src_limbs,
                dst_limbs,
            } => n * src_limbs as u64 * dst_limbs as u64 * 6,
            OpKind::Ew { instr, limbs } => {
                n * limbs as u64 * instr.mmac_ops_per_element() as u64 * 6
            }
            OpKind::Aut { .. } | OpKind::WriteBack { .. } => 0,
        }
    }

    fn kernel_class(kind: &OpKind) -> (&'static str, KernelClass) {
        match kind {
            OpKind::Ntt { .. } | OpKind::Intt { .. } => ("(I)NTT", KernelClass::Ntt),
            OpKind::BConv { .. } => ("BConv", KernelClass::BConv),
            OpKind::Ew { .. } => ("element-wise", KernelClass::ElementWise),
            OpKind::Aut { .. } => ("automorphism", KernelClass::Automorphism),
            OpKind::WriteBack { .. } => ("write-back", KernelClass::WriteBack),
        }
    }

    fn describe_gpu_op(
        &self,
        op: &Op,
        n: u64,
        class: KernelClass,
        cache: &mut L2Cache,
    ) -> KernelDesc {
        let int_ops = self.int_ops(&op.kind, n);
        let mut dram_read = 0u64;
        let mut dram_write = 0u64;
        let mut l2 = 0u64;
        match op.kind {
            OpKind::WriteBack { bytes } => {
                // Explicit flush: all bytes go to DRAM (§V-C).
                dram_write = bytes;
            }
            _ => {
                for r in &op.reads {
                    let missed = cache.read(r.id, r.bytes as usize);
                    dram_read += missed;
                    l2 += r.bytes - missed;
                }
                for w in &op.writes {
                    if w.bytes as usize > self.gpu.config().l2_bytes {
                        dram_write += w.bytes;
                    } else {
                        cache.write(w.id, w.bytes as usize);
                        l2 += w.bytes;
                    }
                }
            }
        }
        let mut k = KernelDesc::new(class, int_ops, dram_read, dram_write);
        k.l2_bytes = l2;
        k
    }
}

/// How a run routes PIM kernels around failures.
enum Gate<'r> {
    /// No registry: the first hard fault switches PIM off for the rest of
    /// the run. Later ops are then issued as ordinary (L2-cached) GPU ops.
    KillSwitch { tripped: bool },
    /// Per-bank circuit breakers that persist across runs.
    Breakers(&'r mut HealthRegistry),
}

/// Where ops land in virtual time — the only thing the modes disagree on.
struct Timeline {
    /// Executor of the previous op in issue order; a switch is a handoff.
    last: Executor,
    clock: Clock,
}

enum Clock {
    /// One clock for both engines. Serial treats a PIM run as a queue
    /// drained when the GPU op closing the run arrives: the run's ops, and
    /// that GPU op, are routed and budget-checked against the clock as of
    /// the run's opening handoff (`run_start`), and each kernel gets a
    /// budget check of its own at its start. The committed serial
    /// timelines (soak snapshots, the schedule contract) have exactly these
    /// semantics.
    Serial { now: f64, run_start: f64 },
    /// A cursor per stream plus the dependency horizon.
    Pipelined(Box<Streams>),
}

/// The pipelined pass's state. Ops are still visited in issue order — so
/// the stateful L2 model, the fault-injector stream, and breaker decisions
/// consume exactly the serial sequence — but each op is placed on its own
/// stream's cursor at the earliest point its data dependencies allow. A
/// dependency whose producer ran on the other stream pays one
/// [`TRANSITION_NS`] handoff; same-stream work queues back-to-back for
/// free. Coherence write-backs carry no tracked read/write sets, so every
/// PIM kernel additionally waits for the last write-back to land plus one
/// handoff — the conservative barrier that keeps PIM from reading stale
/// bank rows.
///
/// `report.transitions` uses the same counting rule as serial mode
/// (issue-order executor switches plus one per GPU fallback), so for a
/// fault-free run `total_ns + stream_overlap_ns` reconstructs the serial
/// makespan exactly.
#[derive(Default)]
struct Streams {
    gpu: f64,
    pim: f64,
    last_writeback_end: f64,
    /// Object → its last producer's completion (overwrite: builders
    /// allocate SSA-style, so the last write in issue order is the
    /// program-order dependency). Both maps are only looked up, never
    /// iterated, so the id hasher cannot reorder anything.
    writer_end: IdMap<(f64, Executor)>,
    /// Object → its latest reader's completion (max-merge, because a
    /// later-issued reader can finish earlier on the other stream).
    reader_end: IdMap<(f64, Executor)>,
    /// Issue-order run-length segments per stream, for telemetry:
    /// (stream, start, end, ops, slide).
    seg: Option<(Executor, f64, f64, u32, f64)>,
    seg_idx: u32,
    prev_seg_end: f64,
}

impl Timeline {
    fn new(pipelined: bool) -> Self {
        let clock = if pipelined {
            Clock::Pipelined(Box::default())
        } else {
            Clock::Serial {
                now: 0.0,
                run_start: 0.0,
            }
        };
        Self {
            last: Executor::Gpu,
            clock,
        }
    }

    /// The clock the budget is checked against before the next op: for a
    /// serial op inside a PIM run, or the GPU op closing it, the clock as
    /// of the run's opening handoff (see [`Clock::Serial`]).
    fn issue_ns(&self) -> f64 {
        match &self.clock {
            Clock::Serial { now, run_start } => {
                if self.last == Executor::Pim {
                    *run_start
                } else {
                    *now
                }
            }
            Clock::Pipelined(s) => s.gpu.max(s.pim),
        }
    }

    /// Serial only: whether a PIM run is open. Its ops are routed as of
    /// the run's opening (see [`Clock::Serial`]), so a kill switch tripped
    /// mid-run sends the rest of the run down the degraded GPU fallback.
    fn in_serial_pim_run(&self) -> bool {
        matches!(self.clock, Clock::Serial { .. }) && self.last == Executor::Pim
    }

    /// Where `op` starts on `target`, recording the handoff when the
    /// issue-order executor switches.
    fn start(
        &mut self,
        op: &Op,
        target: Executor,
        report: &mut ExecutionReport,
        tel: Option<&mut Telemetry>,
    ) -> f64 {
        let switch = self.last != target;
        self.last = target;
        if switch {
            report.transitions += 1;
        }
        match &mut self.clock {
            Clock::Serial { now, run_start } => {
                if switch {
                    if let Some(t) = tel {
                        t.transition(*now, *now + TRANSITION_NS);
                    }
                    *now += TRANSITION_NS;
                    *run_start = *now;
                }
                *now
            }
            Clock::Pipelined(s) => {
                let ready = s.dep_ready_ns(op, target);
                let start = match target {
                    Executor::Gpu => s.gpu.max(ready),
                    Executor::Pim => s.pim.max(ready).max(s.last_writeback_end + TRANSITION_NS),
                };
                if switch {
                    if let Some(t) = tel {
                        t.transition((start - TRANSITION_NS).max(0.0), start);
                    }
                }
                start
            }
        }
    }

    /// Where a kernel PIM could not complete (its attempts ended at
    /// `fail_end`) restarts on the GPU: one handoff later, and in pipelined
    /// mode behind whatever the GPU stream is already running, so a
    /// fallback never overlaps another kernel on the same engine.
    fn fallback_start(
        &self,
        fail_end: f64,
        report: &mut ExecutionReport,
        tel: Option<&mut Telemetry>,
    ) -> f64 {
        report.transitions += 1;
        let (from, start) = match &self.clock {
            Clock::Serial { .. } => (fail_end, fail_end + TRANSITION_NS),
            Clock::Pipelined(s) => {
                let start = s.gpu.max(fail_end + TRANSITION_NS);
                ((start - TRANSITION_NS).max(0.0), start)
            }
        };
        if let Some(t) = tel {
            t.transition(from, start);
        }
        start
    }

    /// End of a GPU kernel started at `start`. Each mode keeps the float
    /// rounding of its committed timelines: the serial clock adds latency
    /// and stall as one sum, the GPU stream adds them in turn.
    fn gpu_end(&self, start: f64, latency_ns: f64, stall_ns: f64) -> f64 {
        match self.clock {
            Clock::Serial { .. } => start + (latency_ns + stall_ns),
            Clock::Pipelined(_) => start + latency_ns + stall_ns,
        }
    }

    /// Moves the `on` engine's cursor (serial: the clock) to `t`.
    fn advance(&mut self, on: Executor, t: f64) {
        match &mut self.clock {
            Clock::Serial { now, .. } => *now = t,
            Clock::Pipelined(s) => match on {
                Executor::Gpu => s.gpu = t,
                Executor::Pim => s.pim = t,
            },
        }
    }

    /// Publishes `op`, issued to `target` at `start` and completed at
    /// `done` by `done_on`, into the dependency horizon and the stream
    /// segments. The serial clock has nothing to track.
    fn publish(
        &mut self,
        op: &Op,
        target: Executor,
        start: f64,
        (done, done_on): (f64, Executor),
        tel: Option<&mut Telemetry>,
    ) {
        let Clock::Pipelined(s) = &mut self.clock else {
            return;
        };
        if matches!(op.kind, OpKind::WriteBack { .. }) {
            s.last_writeback_end = done;
        }
        for r in &op.reads {
            let e = s.reader_end.entry(r.id).or_insert((done, done_on));
            if done >= e.0 {
                *e = (done, done_on);
            }
        }
        for w in &op.writes {
            s.writer_end.insert(w.id, (done, done_on));
        }
        match s.seg.as_mut() {
            Some(seg) if seg.0 == target => {
                seg.2 = seg.2.max(done);
                seg.3 += 1;
            }
            _ => {
                s.close_segment(tel);
                let slide = if s.seg_idx == 0 {
                    0.0
                } else {
                    (s.prev_seg_end + TRANSITION_NS - start).max(0.0)
                };
                s.seg = Some((target, start, done, 1, slide));
            }
        }
    }

    /// Closes the run: the makespan and, for the pipelined pass, the
    /// overlap the two streams hid.
    fn finish(&mut self, report: &mut ExecutionReport, mut tel: Option<&mut Telemetry>) {
        match &mut self.clock {
            Clock::Serial { now, .. } => report.total_ns = *now,
            Clock::Pipelined(s) => {
                s.close_segment(tel.as_deref_mut());
                report.total_ns = s.gpu.max(s.pim);
                // The serial-equivalent span (kernels + handoffs + backoff)
                // minus the pipelined makespan.
                let kernel_ns: f64 = report.breakdown_ns.values().sum();
                let serial_equiv =
                    kernel_ns + f64::from(report.transitions) * TRANSITION_NS + report.backoff_ns;
                report.stream_overlap_ns = (serial_equiv - report.total_ns).max(0.0);
                if let Some(t) = tel.as_deref_mut() {
                    t.stream_overlap(report.stream_overlap_ns);
                }
            }
        }
        if let Some(t) = tel {
            t.run_complete(report);
        }
    }
}

impl Streams {
    /// Earliest start permitted by `op`'s RAW/WAR/WAW dependencies, with a
    /// [`TRANSITION_NS`] penalty on every edge whose other endpoint ran on
    /// the opposite stream.
    fn dep_ready_ns(&self, op: &Op, target: Executor) -> f64 {
        let cross = |(t, e): (f64, Executor)| {
            if e == target {
                t
            } else {
                t + TRANSITION_NS
            }
        };
        let mut ready = 0.0f64;
        for r in &op.reads {
            if let Some(&w) = self.writer_end.get(&r.id) {
                ready = ready.max(cross(w));
            }
        }
        for w in &op.writes {
            if let Some(&p) = self.writer_end.get(&w.id) {
                ready = ready.max(cross(p));
            }
            if let Some(&p) = self.reader_end.get(&w.id) {
                ready = ready.max(cross(p));
            }
        }
        ready
    }

    fn close_segment(&mut self, tel: Option<&mut Telemetry>) {
        if let Some((ex, s0, s1, ops, slide)) = self.seg.take() {
            if let Some(t) = tel {
                t.stream_segment(ex.name(), self.seg_idx, s0, s1, ops, slide);
            }
            self.seg_idx += 1;
            self.prev_seg_end = s1;
        }
    }
}

/// One run's mutable state.
struct Run<'s, 'r> {
    sched: &'s Scheduler<'s>,
    n: u64,
    report: ExecutionReport,
    cache: L2Cache,
    injector: Option<FaultInjector>,
    gate: Gate<'r>,
    tel: Option<&'r mut Telemetry>,
    budget_ns: Option<f64>,
    tl: Timeline,
    /// One executor for the whole run, so each kernel shape is timed once.
    pim: Option<PimExecutor<'s>>,
}

impl<'s> Run<'s, '_> {
    /// The PIM executor; PIM ops are routed only when there is a device.
    fn exec(&self) -> &PimExecutor<'s> {
        self.pim.as_ref().expect("PIM ops need a PIM device")
    }

    fn over_budget(&self, now: f64) -> bool {
        self.budget_ns.is_some_and(|b| now > b)
    }

    /// The run loop: every op in issue order, on the engine its gate
    /// allows, at the time its mode's timeline gives it.
    fn schedule(mut self, seq: &OpSequence) -> Result<ExecutionReport, RunError> {
        let mut kernel_idx = 0u64;
        for op in &seq.ops {
            if self.over_budget(self.tl.issue_ns()) {
                self.report.cancelled = true;
                break;
            }
            let pim_open = match self.gate {
                Gate::KillSwitch { tripped } => !tripped,
                Gate::Breakers(_) => true,
            };
            let target = if self.sched.pim.is_some() && (pim_open || self.tl.in_serial_pim_run()) {
                op.executor
            } else {
                Executor::Gpu
            };
            let (start, done) = match target {
                Executor::Gpu => {
                    let (class_label, class) = Scheduler::kernel_class(&op.kind);
                    let desc = self
                        .sched
                        .describe_gpu_op(op, self.n, class, &mut self.cache);
                    let start =
                        self.tl
                            .start(op, target, &mut self.report, self.tel.as_deref_mut());
                    let end = self.gpu_kernel(desc, op.label, class_label, start, false);
                    (start, (end, Executor::Gpu))
                }
                Executor::Pim => {
                    // Serial flush-time cancel (see `Clock::Serial`): a
                    // kernel of this PIM run found the budget spent, so the
                    // rest of the run is dropped. The GPU op closing the run
                    // still executes, because its own budget check passed
                    // at issue, before the run's kernels executed; only
                    // after it does the loop stop.
                    if self.report.cancelled {
                        continue;
                    }
                    let OpKind::Ew { instr, limbs } = op.kind else {
                        unreachable!("only element-wise ops are offloaded")
                    };
                    let spec = PimKernelSpec {
                        instr,
                        limbs,
                        n: self.n as usize,
                    };
                    let start =
                        self.tl
                            .start(op, target, &mut self.report, self.tel.as_deref_mut());
                    if self.tl.in_serial_pim_run() && self.over_budget(start) {
                        self.report.cancelled = true;
                        continue;
                    }
                    let kid = kernel_idx;
                    kernel_idx += 1;
                    (start, self.pim_kernel(spec, op.label, kid, start)?)
                }
            };
            self.tl
                .publish(op, target, start, done, self.tel.as_deref_mut());
        }
        self.tl.finish(&mut self.report, self.tel.as_deref_mut());
        if let Gate::Breakers(reg) = self.gate {
            reg.run_complete(&self.report);
        }
        Ok(self.report)
    }

    /// Charges one GPU kernel started at `start` and returns its end.
    fn gpu_kernel(
        &mut self,
        desc: KernelDesc,
        label: &'static str,
        class: &'static str,
        start: f64,
        degraded: bool,
    ) -> f64 {
        let cost = self.sched.gpu.cost(&desc);
        self.report.gpu_dram_bytes += desc.dram_bytes();
        self.report.energy_j += cost.energy_j;
        let stall = self.gpu_faults();
        let end = self.tl.gpu_end(start, cost.time_ns, stall);
        let seg = GanttSegment {
            start_ns: start,
            end_ns: end,
            executor: Executor::Gpu,
            class,
            label,
            degraded,
        };
        if let Some(t) = self.tel.as_deref_mut() {
            t.kernel(
                &seg,
                vec![
                    ("bytes", desc.dram_bytes().into()),
                    ("bandwidth_bound", cost.bandwidth_bound.into()),
                    ("degraded", degraded.into()),
                ],
            );
        }
        self.report.push_segment(seg);
        self.tl.advance(Executor::Gpu, end);
        end
    }

    /// Samples the GPU-side fault domain at one GPU kernel launch: returns
    /// the extra latency of an injected stream stall, and fails the
    /// end-to-end integrity verdict on an injected transfer bit flip (the
    /// GPU path has no per-kernel residue check to catch it earlier).
    /// Zero-probability plans draw nothing from the fault stream.
    fn gpu_faults(&mut self) -> f64 {
        let mut extra = 0.0;
        if let Some(inj) = self.injector.as_mut() {
            if let Some(stall) = inj.sample_gpu_stall() {
                extra += stall;
                self.report.gpu_stalls += 1;
            }
            if inj.sample_gpu_transfer_flip() {
                self.report.gpu_faults += 1;
                self.report.integrity_failed = true;
            }
        }
        extra
    }

    /// Runs one PIM kernel from `start` through the gate: attempts under
    /// fault injection, policy-driven retries of transient integrity
    /// failures, and the GPU fallback for whatever PIM cannot complete.
    /// Returns the kernel's completion time and the engine that finished it.
    fn pim_kernel(
        &mut self,
        spec: PimKernelSpec,
        label: &'static str,
        kid: u64,
        start: f64,
    ) -> Result<(f64, Executor), RunError> {
        let (bank, decision) = match &mut self.gate {
            Gate::KillSwitch { tripped: true } => {
                // A hard fault earlier in this serial PIM run took PIM out;
                // the rest of the run re-executes on the GPU.
                return Ok((self.gpu_fallback(&spec, label, start), Executor::Gpu));
            }
            Gate::KillSwitch { tripped: false } => (None, PathDecision::Allow),
            Gate::Breakers(reg) => {
                let domains = reg.domains() as u32;
                let bank = reg.assign_domain();
                let (decision, transition) = reg.decide(bank, start);
                note_transition(&mut self.report, self.tel.as_deref_mut(), transition, start);
                if decision == PathDecision::Skip {
                    self.report.breaker_skips += 1;
                    // No PIM attempt was made, so the PIM cursor stays put.
                    return Ok((self.gpu_fallback(&spec, label, start), Executor::Gpu));
                }
                (Some((bank, BankDomain::new(bank, domains))), decision)
            }
        };
        let mut cursor = start;
        let mut retries = 0u32;
        let mut backoff_spent = 0.0f64;
        loop {
            let exec = self.pim.as_ref().expect("PIM ops need a PIM device");
            let outcome = match self.injector.as_mut() {
                Some(inj) => exec.execute_with_faults(&spec, inj, bank.map(|b| b.1)),
                None => exec.execute(&spec),
            };
            let violation = match outcome {
                Ok(r) => {
                    self.pim_attempt(&r, label, false, &mut cursor);
                    if let (Gate::Breakers(reg), Some((bank, _))) = (&mut self.gate, bank) {
                        let t = reg.on_success(bank, cursor);
                        note_transition(&mut self.report, self.tel.as_deref_mut(), t, cursor);
                    }
                    self.tl.advance(Executor::Pim, cursor);
                    return Ok((cursor, Executor::Pim));
                }
                Err(PimError::IntegrityViolation(violation)) => violation,
                Err(e) => return Err(RunError::Pim(e)),
            };
            self.report.faults_detected += 1;
            // The failed attempt still burned time and energy.
            self.pim_attempt(&violation.wasted, label, true, &mut cursor);
            let permanent = violation.is_permanent();
            // A half-open probe gets exactly one attempt; hard faults are
            // never retried.
            if !permanent
                && decision == PathDecision::Allow
                && retries < self.sched.retry.max_retries
                && self.backoff(kid, retries + 1, &mut backoff_spent, &mut cursor)
            {
                retries += 1;
                self.report.pim_retries += 1;
                continue;
            }
            if let (Gate::Breakers(reg), Some((bank, _))) = (&mut self.gate, bank) {
                let t = reg.on_failure(bank, permanent, cursor, violation.cause());
                note_transition(&mut self.report, self.tel.as_deref_mut(), t, cursor);
            }
            // A hard fault (stuck MMAC lane): retrying on PIM cannot succeed,
            // so a kill switch stays off for the rest of the run.
            if let Gate::KillSwitch { tripped } = &mut self.gate {
                *tripped |= permanent;
            }
            self.report.pim_fallbacks += 1;
            self.tl.advance(Executor::Pim, cursor);
            return Ok((self.gpu_fallback(&spec, label, cursor), Executor::Gpu));
        }
    }

    /// Re-executes a kernel PIM could not complete (ending at `fail_end`)
    /// on the GPU. The operands are PIM-resident, so the kernel streams
    /// everything through DRAM with no L2 reuse, and the re-dispatch pays
    /// one PIM→GPU handoff.
    fn gpu_fallback(&mut self, spec: &PimKernelSpec, label: &'static str, fail_end: f64) -> f64 {
        let start = self
            .tl
            .fallback_start(fail_end, &mut self.report, self.tel.as_deref_mut());
        let dram_read = (spec.instr.profile().total_reads() * spec.limbs * spec.n * 4) as u64;
        let dram_write = self.exec().gpu_bytes_equivalent(spec) - dram_read;
        let kind = OpKind::Ew {
            instr: spec.instr,
            limbs: spec.limbs,
        };
        let int_ops = self.sched.int_ops(&kind, spec.n as u64);
        let desc = KernelDesc::new(KernelClass::ElementWise, int_ops, dram_read, dram_write);
        self.gpu_kernel(desc, label, "element-wise", start, true)
    }

    /// Charges a PIM attempt (successful or wasted) to the timeline.
    fn pim_attempt(
        &mut self,
        r: &PimKernelResult,
        label: &'static str,
        degraded: bool,
        now: &mut f64,
    ) {
        let start = *now;
        *now += r.latency_ns;
        self.report.energy_j += r.energy_joules(self.exec().device());
        self.report.pim_dram_bytes += r.bytes_internal;
        self.report.pim_mmac_ops += r.mmac_ops;
        self.report.pim_acts += r.acts_total;
        let seg = GanttSegment {
            start_ns: start,
            end_ns: *now,
            executor: Executor::Pim,
            class: "element-wise",
            label,
            degraded,
        };
        if let Some(t) = self.tel.as_deref_mut() {
            t.kernel(
                &seg,
                vec![
                    ("bytes_internal", r.bytes_internal.into()),
                    ("mmac_ops", r.mmac_ops.into()),
                    ("degraded", degraded.into()),
                    ("limb_batches", r.limb_batches.into()),
                ],
            );
        }
        self.report.push_segment(seg);
    }

    /// Computes (and charges, if affordable) the backoff before the next
    /// retry of kernel `kid`. Returns false when the backoff budget is
    /// exhausted and the kernel should fall back instead.
    fn backoff(&mut self, kid: u64, attempt: u32, spent: &mut f64, now: &mut f64) -> bool {
        let retry = &self.sched.retry;
        let b = retry.backoff_ns(kid, attempt);
        if *spent + b > retry.budget_ns {
            return false;
        }
        if let Some(t) = self.tel.as_deref_mut() {
            if b > 0.0 {
                t.backoff(*now, *now + b);
            }
        }
        *spent += b;
        *now += b;
        self.report.backoff_ns += b;
        true
    }
}

/// Records a breaker transition (if any) in the report and on the trace.
fn note_transition(
    report: &mut ExecutionReport,
    tel: Option<&mut Telemetry>,
    transition: Option<BreakerTransition>,
    at_ns: f64,
) {
    if let Some(t) = transition {
        if let Some(tl) = tel {
            tl.breaker_transition(&t, at_ns);
        }
        report.breaker_transitions.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{Builder, LinTransStyle};
    use crate::params::ParamSet;
    use crate::passes::{fuse, offload, FusionConfig};
    use crate::telemetry::names;
    use gpu::config::{GpuConfig, LibraryProfile};

    fn gpu_model() -> GpuModel {
        GpuModel::new(GpuConfig::a100_80gb(), LibraryProfile::cheddar())
    }

    fn budget(ns: f64) -> RunOptions<'static> {
        RunOptions {
            budget_ns: Some(ns),
            ..RunOptions::default()
        }
    }

    fn lt(reorder: bool) -> OpSequence {
        let mut b = Builder::new(ParamSet::paper_default());
        b.lintrans(54, 8, LinTransStyle::Hoisting, reorder)
    }

    fn boot() -> OpSequence {
        Builder::new(ParamSet::paper_default()).bootstrap()
    }

    /// `seq` fused with [`FusionConfig::full`] and offloaded for `dev`.
    fn offloaded(mut seq: OpSequence, m: &GpuModel, dev: &PimDeviceConfig) -> OpSequence {
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, m, dev, LayoutPolicy::ColumnPartitioned);
        seq
    }

    #[test]
    fn gpu_only_schedule_produces_breakdown() {
        let m = gpu_model();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::gpu_baseline());
        let r = Scheduler::gpu_only(&m).run(&seq).unwrap();
        assert!(r.total_ns > 0.0);
        assert!(r.energy_j > 0.0);
        assert!(r.fraction("element-wise") > 0.1, "EW must be visible");
        assert!(r.fraction("(I)NTT") > 0.05);
        assert_eq!(r.transitions, 0);
        assert!(r.pim_dram_bytes == 0);
    }

    #[test]
    fn pim_schedule_beats_gpu_only() {
        // The headline claim, at linear-transform granularity (Fig. 4a).
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();

        let mut gpu_seq = lt(true);
        fuse(&mut gpu_seq, &FusionConfig::gpu_baseline());
        let gpu_r = Scheduler::gpu_only(&m).run(&gpu_seq).unwrap();

        let pim_seq = offloaded(lt(true), &m, &dev);
        let pim_r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&pim_seq)
            .unwrap();

        assert!(
            pim_r.total_ns < gpu_r.total_ns,
            "PIM {:.1} µs must beat GPU-only {:.1} µs",
            pim_r.total_ns / 1e3,
            gpu_r.total_ns / 1e3
        );
        assert!(
            pim_r.gpu_dram_bytes < gpu_r.gpu_dram_bytes / 2,
            "PIM must slash GPU-side DRAM traffic (§V-D): {} vs {}",
            pim_r.gpu_dram_bytes,
            gpu_r.gpu_dram_bytes
        );
        assert!(pim_r.transitions >= 2);
        assert!(pim_r.energy_j < gpu_r.energy_j, "energy must also improve");
    }

    #[test]
    fn each_pim_attempt_is_one_leaf_span_and_its_ops_fold_from_the_report() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(lt(true), &m, &dev);
        let mut tel = Telemetry::new(5);
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run_with(
                &seq,
                RunOptions {
                    telemetry: Some(&mut tel),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        let pim_segs: Vec<_> = r
            .segments
            .iter()
            .filter(|s| s.executor == Executor::Pim)
            .collect();
        let pim_spans: Vec<_> = tel
            .trace
            .spans()
            .iter()
            .filter(|s| s.track == "PIM")
            .collect();
        assert!(!pim_segs.is_empty());
        assert_eq!(pim_spans.len(), pim_segs.len(), "one span per PIM attempt");
        for (span, seg) in pim_spans.iter().zip(&pim_segs) {
            assert_eq!((span.name.as_str(), span.cat), (seg.label, seg.class));
            assert_eq!((span.start_ns, span.end_ns), (seg.start_ns, seg.end_ns));
            let keys: Vec<_> = span.args.iter().map(|(k, _)| *k).collect();
            assert_eq!(
                keys,
                ["bytes_internal", "mmac_ops", "degraded", "limb_batches"]
            );
            assert!(tel.trace.spans().iter().all(|c| c.parent != Some(span.id)));
        }
        assert!(r.pim_mmac_ops > 0 && r.pim_acts > 0);
        let m = &tel.metrics;
        assert_eq!(m.counter_value(names::PIM_MMAC_OPS, &[]), r.pim_mmac_ops);
        assert_eq!(m.counter_value(names::PIM_ACTS, &[]), r.pim_acts);
    }

    #[test]
    fn transitions_are_counted_and_bounded() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(lt(true), &m, &dev);
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq)
            .unwrap();
        // Transition overhead must stay negligible (§V-C).
        let overhead = r.transitions as f64 * TRANSITION_NS;
        assert!(overhead < 0.25 * r.total_ns, "transitions must be minor");
    }

    #[test]
    fn transient_faults_retry_then_fall_back_to_gpu() {
        // Bank flip probability 1: every PIM attempt fails its integrity
        // check, so each kernel burns MAX_PIM_RETRIES retries and then
        // re-executes on the GPU. The run still completes.
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(lt(true), &m, &dev);
        let clean = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq)
            .unwrap();
        let kernels = clean
            .segments
            .iter()
            .filter(|s| s.executor == Executor::Pim)
            .count() as u32;
        assert!(kernels > 0, "offload must produce PIM kernels");

        let plan = FaultPlan::none().with_seed(11).with_bank_flips(1.0);
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_fault_plan(plan)
            .run(&seq)
            .unwrap();
        assert_eq!(r.faults_detected, kernels * (1 + MAX_PIM_RETRIES));
        assert_eq!(r.pim_retries, kernels * MAX_PIM_RETRIES);
        // Wasted attempts plus one GPU re-execution per kernel.
        assert_eq!(
            r.degraded_segments,
            kernels * (1 + MAX_PIM_RETRIES) + kernels
        );
        assert!(
            r.total_ns > clean.total_ns,
            "degraded run must be slower: {} vs {}",
            r.total_ns,
            clean.total_ns
        );
    }

    #[test]
    fn hard_fault_permanently_disables_pim() {
        // A stuck MMAC lane is a hard fault: no retries, one wasted PIM
        // attempt, and the rest of the run stays on the GPU.
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(lt(true), &m, &dev);
        let plan = FaultPlan::none().with_seed(5).with_stuck_lane(3);
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_fault_plan(plan)
            .run(&seq)
            .unwrap();
        assert_eq!(r.faults_detected, 1, "first attempt detects the hard fault");
        assert_eq!(r.pim_retries, 0, "hard faults are never retried");
        let pim_segments = r
            .segments
            .iter()
            .filter(|s| s.executor == Executor::Pim)
            .count();
        assert_eq!(pim_segments, 1, "only the wasted attempt touches PIM");
        assert!(
            r.degraded_segments >= 2,
            "wasted attempt + GPU re-execution"
        );
        // The work still completes; every degraded GPU segment is marked.
        assert!(r
            .segments
            .iter()
            .any(|s| s.executor == Executor::Gpu && s.degraded));
    }

    #[test]
    fn benign_fault_plan_changes_nothing() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(lt(true), &m, &dev);
        let clean = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq)
            .unwrap();
        let benign = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_fault_plan(FaultPlan::none())
            .run(&seq)
            .unwrap();
        assert_eq!(clean.total_ns, benign.total_ns);
        assert_eq!(benign.faults_detected, 0);
        assert_eq!(benign.degraded_segments, 0);
    }

    #[test]
    fn pipelined_bootstrap_speedup_within_v_c_band() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(boot(), &m, &dev);
        let serial = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq)
            .unwrap();
        let pipe = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_mode(ScheduleMode::Pipelined)
            .run(&seq)
            .unwrap();
        let speedup = serial.total_ns / pipe.total_ns;
        assert!(
            speedup > 1.0 && speedup <= 1.35,
            "§V-C band violated: {speedup:.4}x"
        );
        assert!(
            speedup <= serial.pipelining_headroom() + 1e-9,
            "cannot beat the perfect-overlap bound"
        );
        // Work is conserved: identical kernels, bytes, energy, handoffs.
        assert_eq!(serial.gpu_dram_bytes, pipe.gpu_dram_bytes);
        assert_eq!(serial.pim_dram_bytes, pipe.pim_dram_bytes);
        assert_eq!(serial.transitions, pipe.transitions);
        assert_eq!(serial.segments.len(), pipe.segments.len());
        assert!((serial.energy_j - pipe.energy_j).abs() < 1e-9);
        // Overlap accounting reconstructs the serial makespan.
        assert!(
            (pipe.total_ns + pipe.stream_overlap_ns - serial.total_ns).abs() < 1e-3,
            "overlap {} + total {} vs serial {}",
            pipe.stream_overlap_ns,
            pipe.total_ns,
            serial.total_ns
        );
    }

    #[test]
    fn pipelined_gpu_only_sequence_matches_serial() {
        // No PIM ops → one stream → the pipelined pass degenerates to the
        // serial schedule exactly.
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::gpu_baseline());
        let serial = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq)
            .unwrap();
        let pipe = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_mode(ScheduleMode::Pipelined)
            .run(&seq)
            .unwrap();
        assert_eq!(serial.total_ns, pipe.total_ns);
        assert_eq!(serial.gpu_dram_bytes, pipe.gpu_dram_bytes);
        assert_eq!(serial.transitions, pipe.transitions);
        assert!(pipe.stream_overlap_ns < 1e-3);
    }

    #[test]
    fn pipelined_mode_is_deterministic_under_faults() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(lt(true), &m, &dev);
        let plan = FaultPlan::none().with_seed(11).with_bank_flips(1.0);
        let run = || {
            Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
                .with_mode(ScheduleMode::Pipelined)
                .with_fault_plan(plan)
                .run(&seq)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.faults_detected > 0, "injection must bite");
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.faults_detected, b.faults_detected);
        assert_eq!(a.pim_fallbacks, b.pim_fallbacks);
        // Every fallback queues behind the GPU stream: no two GPU
        // segments may overlap.
        let mut gpu_ends: Vec<(f64, f64)> = a
            .segments
            .iter()
            .filter(|s| s.executor == Executor::Gpu)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        gpu_ends.sort_by(|x, y| x.0.total_cmp(&y.0));
        for w in gpu_ends.windows(2) {
            assert!(w[1].0 >= w[0].1 - 1e-9, "GPU segments overlap: {w:?}");
        }
    }

    #[test]
    fn serial_is_the_default_mode() {
        assert_eq!(ScheduleMode::default(), ScheduleMode::Serial);
    }

    #[test]
    fn deadline_budget_cancels_mid_flight() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(lt(true), &m, &dev);
        let clean = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq)
            .unwrap();
        assert!(!clean.cancelled);

        // A generous budget changes nothing.
        let roomy = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run_with(&seq, budget(clean.total_ns * 10.0))
            .unwrap();
        assert!(!roomy.cancelled);
        assert_eq!(roomy.total_ns, clean.total_ns);
        assert_eq!(roomy.segments.len(), clean.segments.len());

        // A tight budget cancels at a segment boundary: only part of the
        // work ran, and the consumed time is what the report carries.
        let tight = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run_with(&seq, budget(clean.total_ns * 0.3))
            .unwrap();
        assert!(tight.cancelled, "30% budget must cancel the run");
        assert!(tight.total_ns < clean.total_ns);
        assert!(tight.segments.len() < clean.segments.len());
        assert!(tight.summary_line().contains("CANCELLED over budget"));
    }

    #[test]
    fn deadline_budget_cancels_pipelined_runs_too() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded(boot(), &m, &dev);
        let clean = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_mode(ScheduleMode::Pipelined)
            .run(&seq)
            .unwrap();
        let tight = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_mode(ScheduleMode::Pipelined)
            .run_with(&seq, budget(clean.total_ns * 0.25))
            .unwrap();
        assert!(tight.cancelled);
        assert!(tight.total_ns < clean.total_ns);
    }

    #[test]
    fn gpu_stalls_add_latency_only() {
        let m = gpu_model();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::gpu_baseline());
        let clean = Scheduler::gpu_only(&m).run(&seq).unwrap();
        let plan = FaultPlan::none().with_seed(7).with_gpu_stalls(1.0, 5000.0);
        let r = Scheduler::gpu_only(&m)
            .with_fault_plan(plan)
            .run(&seq)
            .unwrap();
        let kernels = clean.segments.len() as u32;
        assert_eq!(r.gpu_stalls, kernels, "every launch must stall at p=1");
        assert_eq!(r.gpu_faults, 0);
        assert!(!r.integrity_failed, "stalls are latency-only");
        let expected = clean.total_ns + f64::from(kernels) * 5000.0;
        assert!(
            (r.total_ns - expected).abs() < 1e-6,
            "stall latency must be additive: {} vs {}",
            r.total_ns,
            expected
        );
        assert_eq!(r.energy_j, clean.energy_j, "stalls burn time, not energy");
    }

    #[test]
    fn gpu_transfer_flips_fail_e2e_integrity() {
        let m = gpu_model();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::gpu_baseline());
        let clean = Scheduler::gpu_only(&m).run(&seq).unwrap();
        let plan = FaultPlan::none().with_seed(9).with_gpu_transfer_flips(1.0);
        let r = Scheduler::gpu_only(&m)
            .with_fault_plan(plan)
            .run(&seq)
            .unwrap();
        assert!(r.integrity_failed, "a flip must fail the e2e verdict");
        assert_eq!(r.gpu_faults, clean.segments.len() as u32);
        assert_eq!(r.gpu_stalls, 0);
        assert_eq!(
            r.total_ns, clean.total_ns,
            "flips are silent: no timeline impact"
        );
        assert!(r.summary_line().contains("e2e integrity FAILED"));
    }

    #[test]
    fn writeback_bytes_hit_dram() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let with_wb = offloaded(lt(true), &m, &dev);
        let writeback_bytes: u64 = with_wb
            .ops
            .iter()
            .map(|o| match o.kind {
                OpKind::WriteBack { bytes } => bytes,
                _ => 0,
            })
            .sum();
        assert!(writeback_bytes > 0, "ModUp outputs must be flushed");
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&with_wb)
            .unwrap();
        assert!(r.gpu_dram_bytes >= writeback_bytes);
    }
}
