//! IR passes: kernel fusion and PIM offload partitioning.
//!
//! - **BasicFuse** (§VII-D "+BasicFuse"): merges per-digit KeyMult ops into
//!   `PAccum⟨D⟩` and constant-accumulation runs into `CAccum⟨K⟩`
//!   (Table II compound instructions; §VI-C shows why the fused forms
//!   amortize ACT/PRE).
//! - **AutFuse** (§V-B "+AutFuse"): merges a relocated automorphism with
//!   the accumulation that follows it into a single `AutAccum` kernel,
//!   removing the intermediate's DRAM round trip.
//! - **ExtraFuse** (§VII-D): GPU-only producer/consumer element-wise chain
//!   fusion (e.g. the ModDown fusion of 100x \[38\]) applied to the baseline
//!   that keeps everything on the GPU.
//! - **Offload** (§V-A,C): moves a run of element-wise ops to PIM when the
//!   device model runs it faster there than the GPU roofline does, counting
//!   the GPU↔PIM handoffs and write-backs, and inserts the user-controlled
//!   L2→DRAM write-backs required for coherence before PIM consumes
//!   GPU-produced data.

use std::collections::{HashMap, HashSet};

use gpu::model::GpuModel;
use pim::device::PimDeviceConfig;
use pim::exec::{PimExecutor, PimKernelSpec};
use pim::isa::PimInstruction;
use pim::layout::LayoutPolicy;

use crate::ir::{Executor, FuseTag, Op, OpKind, OpSequence};
use crate::schedule::TRANSITION_NS;

/// Which fusions to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionConfig {
    /// PAccum/CAccum compound instructions.
    pub basic: bool,
    /// AutAccum fusion (requires the reordered builder flow).
    pub aut: bool,
    /// GPU-only extra chain fusion for the no-PIM baseline.
    pub extra: bool,
}

impl FusionConfig {
    /// No fusion at all (the `Base`/`PIM-Base` configurations of Fig. 10).
    pub fn none() -> Self {
        Self {
            basic: false,
            aut: false,
            extra: false,
        }
    }

    /// `+BasicFuse`.
    pub fn basic_only() -> Self {
        Self {
            basic: true,
            aut: false,
            extra: false,
        }
    }

    /// `+BasicFuse +AutFuse` (the full Anaheim configuration).
    pub fn full() -> Self {
        Self {
            basic: true,
            aut: true,
            extra: false,
        }
    }

    /// `+BasicFuse +ExtraFuse` (the strongest GPU-only baseline).
    pub fn gpu_baseline() -> Self {
        Self {
            basic: true,
            aut: true,
            extra: true,
        }
    }
}

/// Statistics from the offload pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadStats {
    /// Ops moved to PIM.
    pub offloaded_ops: usize,
    /// Coherence write-back bytes inserted.
    pub writeback_bytes: u64,
}

/// Applies the configured fusions in place.
pub fn fuse(seq: &mut OpSequence, cfg: &FusionConfig) {
    if cfg.basic {
        fuse_groups(seq);
    }
    if cfg.aut {
        fuse_aut_accum(seq);
    }
    if cfg.extra {
        fuse_chains(seq);
    }
}

/// BasicFuse: collapse each KeyMult / ConstAccum group into its compound
/// instruction.
fn fuse_groups(seq: &mut OpSequence) {
    let mut out: Vec<Op> = Vec::with_capacity(seq.ops.len());
    let mut i = 0;
    while i < seq.ops.len() {
        let op = &seq.ops[i];
        let group_of = |o: &Op| match o.fuse {
            Some(FuseTag::KeyMult { group }) => Some((group, true)),
            Some(FuseTag::ConstAccum { group }) => Some((group, false)),
            _ => None,
        };
        if let Some((group, is_keymult)) = group_of(op) {
            // Collect the whole run of this group.
            let mut j = i;
            while j < seq.ops.len() && group_of(&seq.ops[j]) == Some((group, is_keymult)) {
                j += 1;
            }
            let run = &seq.ops[i..j];
            let k = run.len();
            let limbs = match run[0].kind {
                OpKind::Ew { limbs, .. } => limbs,
                _ => unreachable!("fusion tags only appear on Ew ops"),
            };
            let instr = if is_keymult {
                PimInstruction::PAccum(k)
            } else {
                PimInstruction::CAccum(k)
            };
            let mut fusedop = Op::new(
                OpKind::Ew { instr, limbs },
                if is_keymult {
                    "KeyMult (PAccum)"
                } else {
                    "ConstAccum (CAccum)"
                },
            );
            // Union of reads/writes, deduplicated (the accumulators appear
            // once instead of K times — that's the traffic saving).
            let mut seen = HashSet::new();
            for o in run {
                for r in &o.reads {
                    if seen.insert(("r", r.id)) {
                        fusedop.reads.push(*r);
                    }
                }
                for w in &o.writes {
                    if seen.insert(("w", w.id)) {
                        fusedop.writes.push(*w);
                    }
                }
            }
            out.push(fusedop);
            i = j;
        } else {
            out.push(seq.ops[i].clone());
            i += 1;
        }
    }
    seq.ops = out;
}

/// AutFuse: merge tagged (Aut, Add) pairs into one AutAccum kernel.
fn fuse_aut_accum(seq: &mut OpSequence) {
    let mut out: Vec<Op> = Vec::with_capacity(seq.ops.len());
    let mut i = 0;
    while i < seq.ops.len() {
        let a = &seq.ops[i];
        if let (Some(FuseTag::AutThenAccum { group: g1 }), OpKind::Aut { limbs, .. }) =
            (a.fuse, a.kind)
        {
            if i + 1 < seq.ops.len() {
                let b = &seq.ops[i + 1];
                if b.fuse == Some(FuseTag::AutThenAccum { group: g1 }) {
                    // Merge: the automorphism output never round-trips.
                    let mut merged = Op::new(
                        OpKind::Aut {
                            limbs,
                            fused_accum: true,
                        },
                        "AutAccum",
                    );
                    let aut_writes: HashSet<u64> = a.writes.iter().map(|w| w.id).collect();
                    merged.reads.extend(a.reads.iter().copied());
                    merged.reads.extend(
                        b.reads
                            .iter()
                            .filter(|r| {
                                !aut_writes.contains(&r.id) && !a.reads.iter().any(|x| x.id == r.id)
                            })
                            .copied(),
                    );
                    merged.writes.extend(b.writes.iter().copied());
                    out.push(merged);
                    i += 2;
                    continue;
                }
            }
        }
        out.push(seq.ops[i].clone());
        i += 1;
    }
    seq.ops = out;
}

/// ExtraFuse: for back-to-back GPU element-wise producer/consumer pairs,
/// keep the intermediate in registers/L2 (drop its DRAM bytes).
fn fuse_chains(seq: &mut OpSequence) {
    // Map: object id → index of the Ew op that wrote it last.
    let mut last_writer: HashMap<u64, usize> = HashMap::new();
    let len = seq.ops.len();
    for i in 0..len {
        let is_ew = matches!(seq.ops[i].kind, OpKind::Ew { .. });
        if is_ew {
            // If the *immediately preceding* op is an Ew producing one of
            // our reads, elide that intermediate's traffic on both sides.
            let read_ids: Vec<u64> = seq.ops[i].reads.iter().map(|r| r.id).collect();
            for id in read_ids {
                if let Some(&w) = last_writer.get(&id) {
                    if w + 1 == i {
                        for wr in &mut seq.ops[w].writes {
                            if wr.id == id {
                                wr.bytes = 0;
                            }
                        }
                        for rd in &mut seq.ops[i].reads {
                            if rd.id == id {
                                rd.bytes = 0;
                            }
                        }
                    }
                }
            }
        }
        if is_ew {
            for w in seq.ops[i].writes.clone() {
                last_writer.insert(w.id, i);
            }
        }
    }
}

/// Offload (§V-A,C): decides per maximal run of element-wise ops by
/// *executing* the candidate PIM kernels through the device model and
/// comparing with the GPU roofline. The PIM side pays two
/// [`TRANSITION_NS`] handoffs plus the write-back of every input the run
/// reads from a non-element-wise (GPU) op. A run moves to PIM only when
/// every kernel in it is supported and the PIM side is faster; then the
/// coherence write-backs are inserted.
pub fn offload(
    seq: &mut OpSequence,
    gpu: &GpuModel,
    dev: &PimDeviceConfig,
    layout: LayoutPolicy,
) -> OffloadStats {
    let n = seq.params.n();
    let exec = PimExecutor::new(dev, layout);
    let bw = gpu.config().dram_bw_gbps * gpu.library().elementwise_eff;
    let mut stats = OffloadStats::default();
    let mut gpu_written: HashMap<u64, u64> = HashMap::new();
    let len = seq.ops.len();
    let mut i = 0;
    while i < len {
        if !seq.ops[i].pim_eligible() {
            for w in &seq.ops[i].writes {
                gpu_written.insert(w.id, w.bytes);
            }
            i += 1;
            continue;
        }
        let mut j = i;
        let mut gpu_ns = 0.0f64;
        let mut pim_ns = 2.0 * TRANSITION_NS;
        let mut flush = 0u64;
        let mut flushed_ids = HashSet::new();
        let mut supported = true;
        while j < len && seq.ops[j].pim_eligible() {
            let op = &seq.ops[j];
            let (instr, limbs) = match op.kind {
                OpKind::Ew { instr, limbs } => (instr, limbs),
                _ => unreachable!("pim_eligible implies Ew"),
            };
            match exec.execute(&PimKernelSpec { instr, limbs, n }) {
                Ok(r) => pim_ns += r.latency_ns,
                // Unsupported (or otherwise unrunnable) on this device:
                // the block stays on the GPU.
                Err(_) => supported = false,
            }
            gpu_ns +=
                (op.bytes_read() + op.bytes_written()) as f64 / bw + gpu.config().kernel_launch_ns;
            for r in &op.reads {
                if let Some(&bytes) = gpu_written.get(&r.id) {
                    if flushed_ids.insert(r.id) {
                        flush += bytes;
                    }
                }
            }
            j += 1;
        }
        pim_ns += flush as f64 / bw;
        if supported && pim_ns < gpu_ns {
            for op in &mut seq.ops[i..j] {
                op.executor = Executor::Pim;
                stats.offloaded_ops += 1;
            }
        }
        i = j;
    }
    insert_writebacks(seq, &mut stats);
    stats
}

/// Inserts the §V-C coherence write-backs: every GPU-produced object later
/// read by a PIM kernel is flushed once, right after its producer.
/// Builders allocate objects SSA-style (one producer each), so a single
/// set of PIM-read ids suffices and the scan stays linear.
fn insert_writebacks(seq: &mut OpSequence, stats: &mut OffloadStats) {
    let pim_read_ids: HashSet<u64> = seq
        .ops
        .iter()
        .filter(|o| o.executor == Executor::Pim)
        .flat_map(|o| o.reads.iter().map(|r| r.id))
        .collect();
    let mut flushed: HashSet<u64> = HashSet::new();
    let mut out: Vec<Op> = Vec::with_capacity(seq.ops.len());
    for op in &seq.ops {
        out.push(op.clone());
        if op.executor == Executor::Gpu {
            let mut flush_bytes = 0u64;
            for w in &op.writes {
                if pim_read_ids.contains(&w.id) && flushed.insert(w.id) {
                    flush_bytes += w.bytes;
                }
            }
            if flush_bytes > 0 {
                out.push(Op::new(
                    OpKind::WriteBack { bytes: flush_bytes },
                    "coherence write-back",
                ));
                stats.writeback_bytes += flush_bytes;
            }
        }
    }
    seq.ops = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{Builder, LinTransStyle};
    use crate::params::ParamSet;
    use gpu::config::{GpuConfig, LibraryProfile};

    fn a100() -> GpuModel {
        GpuModel::new(GpuConfig::a100_80gb(), LibraryProfile::cheddar())
    }

    fn lt_seq(reorder: bool) -> OpSequence {
        let mut b = Builder::new(ParamSet::paper_default());
        b.lintrans(54, 8, LinTransStyle::Hoisting, reorder)
    }

    #[test]
    fn basic_fuse_creates_paccum() {
        let mut seq = lt_seq(true);
        let before = seq.ops.len();
        fuse(&mut seq, &FusionConfig::basic_only());
        let paccum = seq
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OpKind::Ew {
                        instr: PimInstruction::PAccum(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(paccum, 7, "one PAccum per rotation (K−1 = 7)");
        assert!(seq.ops.len() < before, "fusion must shrink the op count");
        // Semantics preserved: same element-wise work in the summary.
        let s = seq.summary();
        assert!(s.ew_limb_ops > 0);
    }

    #[test]
    fn basic_fuse_dedups_accumulator_traffic() {
        let mut unfused = lt_seq(true);
        let mut fused = lt_seq(true);
        fuse(&mut fused, &FusionConfig::basic_only());
        // The fused KeyMult reads each accumulator once instead of D times.
        assert!(fused.ideal_bytes() < unfused.ideal_bytes());
        let _ = &mut unfused;
    }

    #[test]
    fn aut_fuse_removes_round_trip() {
        let mut plain = lt_seq(true);
        let mut fused = lt_seq(true);
        fuse(&mut plain, &FusionConfig::basic_only());
        fuse(&mut fused, &FusionConfig::full());
        let autaccum = fused
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    OpKind::Aut {
                        fused_accum: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(autaccum, 7, "one AutAccum per rotation");
        assert!(fused.ideal_bytes() < plain.ideal_bytes());
    }

    #[test]
    fn extra_fuse_cuts_gpu_elementwise_bytes() {
        let mut base = lt_seq(false);
        let mut extra = lt_seq(false);
        fuse(&mut base, &FusionConfig::basic_only());
        fuse(
            &mut extra,
            &FusionConfig {
                basic: true,
                aut: false,
                extra: true,
            },
        );
        assert!(extra.ideal_bytes() < base.ideal_bytes());
    }

    #[test]
    fn offload_marks_ew_and_inserts_writebacks() {
        let mut seq = lt_seq(true);
        fuse(&mut seq, &FusionConfig::full());
        let dev = PimDeviceConfig::a100_near_bank();
        let stats = offload(&mut seq, &a100(), &dev, LayoutPolicy::ColumnPartitioned);
        assert!(stats.offloaded_ops > 0);
        assert!(stats.writeback_bytes > 0, "ModUp outputs must be flushed");
        // Every Ew op is on PIM; NTT/BConv/Aut stay on the GPU.
        for op in &seq.ops {
            match op.kind {
                OpKind::Ew { .. } => assert_eq!(op.executor, Executor::Pim),
                OpKind::Ntt { .. } | OpKind::Intt { .. } | OpKind::BConv { .. } => {
                    assert_eq!(op.executor, Executor::Gpu)
                }
                _ => {}
            }
        }
        // The write-backs are bounded by what §V-D reports: only the
        // ModUp(a) digits (≈ D polynomials) plus small extras, far less
        // than the evk/plaintext traffic PIM eliminates.
        assert!(stats.writeback_bytes < seq.stream_bytes());
    }

    #[test]
    fn unsupported_kernel_keeps_its_whole_run_on_the_gpu() {
        let params = ParamSet::custom(6, 19, 1);
        let level = params.l_max;
        let mut seq = Builder::new(params).lintrans(level, 2, LinTransStyle::Hoisting, true);
        fuse(&mut seq, &FusionConfig::full());
        let layout = LayoutPolicy::ColumnPartitioned;
        let dev = PimDeviceConfig::a100_near_bank();
        // PAccum⟨19⟩ needs G = ⌊B/(K+2)⌋ ≥ 1 buffer entries per slot.
        let spec = PimKernelSpec {
            instr: PimInstruction::PAccum(19),
            limbs: 20,
            n: seq.params.n(),
        };
        assert!(matches!(
            PimExecutor::new(&dev, layout).execute(&spec),
            Err(pim::error::PimError::Unsupported { .. })
        ));
        let paccum_executor = |s: &OpSequence| {
            s.ops
                .iter()
                .find(|o| matches!(o.kind, OpKind::Ew { instr, .. } if instr == spec.instr))
                .map(|o| o.executor)
        };

        let mut b16 = seq.clone();
        let stats = offload(&mut b16, &a100(), &dev, layout);
        assert_eq!(stats, OffloadStats::default());
        assert!(b16.ops.iter().all(|o| o.executor == Executor::Gpu));
        assert_eq!(b16.ops.len(), seq.ops.len(), "no write-back inserted");

        // At B = 32 the same run is supported and PIM wins it, so at B = 16
        // the unsupported kernel, not the cost comparison, kept it on the GPU.
        let mut b32 = seq.clone();
        let stats = offload(&mut b32, &a100(), &dev.with_buffer_entries(32), layout);
        assert_eq!(paccum_executor(&b32), Some(Executor::Pim));
        assert!(stats.offloaded_ops > 1 && stats.writeback_bytes > 0);
    }
}
