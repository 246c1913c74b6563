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
//!
//! The passes run once per scheduled sequence, so they are written to
//! cost little next to the schedule they prepare. A pass that rebuilds the
//! op list moves the ops out of it (`std::mem::take` then `next_if`) and
//! never clones one; a fused op dedupes its reads and writes by scanning
//! its own short lists. Maps and sets keyed by object id use
//! [`gpu::cache::IdHasher`], whose order is never observed: the passes
//! only look ids up.

use gpu::cache::{IdMap, IdSet};
use gpu::model::GpuModel;
use pim::device::PimDeviceConfig;
use pim::exec::{PimExecutor, PimKernelSpec};
use pim::isa::PimInstruction;
use pim::layout::LayoutPolicy;

use crate::ir::{Executor, FuseTag, ObjRef, Op, OpKind, OpSequence};
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

/// Appends each of `src`'s objects whose id `dst` does not hold yet, in
/// order. A fused op's lists are short, so a linear scan beats hashing.
fn push_new(dst: &mut Vec<ObjRef>, src: &[ObjRef]) {
    for r in src {
        if !dst.iter().any(|d| d.id == r.id) {
            dst.push(*r);
        }
    }
}

/// BasicFuse: collapse each KeyMult / ConstAccum group into its compound
/// instruction.
fn fuse_groups(seq: &mut OpSequence) {
    let group_of = |o: &Op| match o.fuse {
        Some(FuseTag::KeyMult { group }) => Some((group, true)),
        Some(FuseTag::ConstAccum { group }) => Some((group, false)),
        _ => None,
    };
    let mut ops = std::mem::take(&mut seq.ops).into_iter().peekable();
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    while let Some(op) = ops.next() {
        let Some(key @ (_, is_keymult)) = group_of(&op) else {
            out.push(op);
            continue;
        };
        let limbs = match op.kind {
            OpKind::Ew { limbs, .. } => limbs,
            _ => unreachable!("fusion tags only appear on Ew ops"),
        };
        // Union of the whole run's reads/writes, deduplicated (the
        // accumulators appear once instead of K times — that's the
        // traffic saving).
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut k = 0;
        let mut member = Some(op);
        while let Some(o) = member {
            k += 1;
            push_new(&mut reads, &o.reads);
            push_new(&mut writes, &o.writes);
            member = ops.next_if(|o| group_of(o) == Some(key));
        }
        let (instr, label) = if is_keymult {
            (PimInstruction::PAccum(k), "KeyMult (PAccum)")
        } else {
            (PimInstruction::CAccum(k), "ConstAccum (CAccum)")
        };
        out.push(Op {
            reads,
            writes,
            ..Op::new(OpKind::Ew { instr, limbs }, label)
        });
    }
    seq.ops = out;
}

/// AutFuse: merge tagged (Aut, Add) pairs into one AutAccum kernel.
fn fuse_aut_accum(seq: &mut OpSequence) {
    let mut ops = std::mem::take(&mut seq.ops).into_iter().peekable();
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    while let Some(a) = ops.next() {
        let (Some(tag @ FuseTag::AutThenAccum { .. }), OpKind::Aut { limbs, .. }) =
            (a.fuse, a.kind)
        else {
            out.push(a);
            continue;
        };
        let Some(b) = ops.next_if(|b| b.fuse == Some(tag)) else {
            out.push(a);
            continue;
        };
        // Merge: the automorphism output never round-trips. The Add's
        // reads follow the Aut's, minus the Aut's output and anything the
        // Aut already reads.
        let (mut reads, aut_writes) = (a.reads, a.writes);
        let aut_reads = reads.len();
        for r in &b.reads {
            if !aut_writes.iter().any(|w| w.id == r.id)
                && !reads[..aut_reads].iter().any(|x| x.id == r.id)
            {
                reads.push(*r);
            }
        }
        out.push(Op {
            reads,
            writes: b.writes,
            ..Op::new(
                OpKind::Aut {
                    limbs,
                    fused_accum: true,
                },
                "AutAccum",
            )
        });
    }
    seq.ops = out;
}

/// ExtraFuse: for back-to-back GPU element-wise producer/consumer pairs,
/// keep the intermediate in registers/L2 (drop its DRAM bytes): when ops
/// i−1 and i are both element-wise, every id op i reads and op i−1 writes
/// loses its bytes on both sides.
fn fuse_chains(seq: &mut OpSequence) {
    let is_ew = |o: &Op| matches!(o.kind, OpKind::Ew { .. });
    for i in 1..seq.ops.len() {
        let [prev, op] = &mut seq.ops[i - 1..=i] else {
            unreachable!("a two-op window")
        };
        if !(is_ew(prev) && is_ew(op)) {
            continue;
        }
        for rd in &mut op.reads {
            let mut produced = false;
            for wr in prev.writes.iter_mut().filter(|w| w.id == rd.id) {
                wr.bytes = 0;
                produced = true;
            }
            if produced {
                rd.bytes = 0;
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
    let mut gpu_written: IdMap<u64> = IdMap::default();
    // The ids one run has already charged a flush for, cleared per run.
    let mut flushed_ids = IdSet::default();
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
        flushed_ids.clear();
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
    let pim_read_ids: IdSet = seq
        .ops
        .iter()
        .filter(|o| o.executor == Executor::Pim)
        .flat_map(|o| o.reads.iter().map(|r| r.id))
        .collect();
    if pim_read_ids.is_empty() {
        return;
    }
    let mut flushed = IdSet::default();
    let ops = std::mem::take(&mut seq.ops);
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    for op in ops {
        let mut flush_bytes = 0u64;
        if op.executor == Executor::Gpu {
            for w in &op.writes {
                if pim_read_ids.contains(&w.id) && flushed.insert(w.id) {
                    flush_bytes += w.bytes;
                }
            }
        }
        out.push(op);
        if flush_bytes > 0 {
            out.push(Op::new(
                OpKind::WriteBack { bytes: flush_bytes },
                "coherence write-back",
            ));
            stats.writeback_bytes += flush_bytes;
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
