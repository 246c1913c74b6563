//! Property tests over the Anaheim IR, builders, and passes: invariants
//! that must hold for *any* parameter choice, not just the paper's.

use std::collections::{HashMap, HashSet};

use anaheim::core::build::{Builder, LinTransStyle};
use anaheim::core::ir::{Executor, FuseTag, ObjKind, ObjRef, Op, OpKind, OpSequence};
use anaheim::core::params::ParamSet;
use anaheim::core::passes::{fuse, offload, FusionConfig, OffloadStats};
use anaheim::gpu::config::{GpuConfig, LibraryProfile};
use anaheim::gpu::model::GpuModel;
use anaheim::pim::device::PimDeviceConfig;
use anaheim::pim::isa::PimInstruction;
use anaheim::pim::layout::LayoutPolicy;
use proptest::prelude::*;

fn paper_params() -> impl Strategy<Value = ParamSet> {
    prop_oneof![
        Just(ParamSet::with_decomposition(2)),
        Just(ParamSet::with_decomposition(3)),
        Just(ParamSet::with_decomposition(4)),
        Just(ParamSet::with_decomposition(6)),
        Just(ParamSet::with_decomposition(8)),
    ]
}

fn arb_params() -> impl Strategy<Value = ParamSet> {
    prop_oneof![
        paper_params(),
        (4u32..9, 3usize..20, 1usize..5)
            .prop_map(|(log_n, l, a)| { ParamSet::custom(log_n, l, a.min(l)) }),
    ]
}

fn ew_work(seq: &OpSequence) -> u64 {
    seq.summary().ew_limb_ops
}

/// A `K`-rotation hoisted linear transform at the top level, fused with
/// [`FusionConfig::full`].
fn fused_lt(params: ParamSet, k: usize) -> OpSequence {
    let level = params.l_max;
    let mut seq = Builder::new(params).lintrans(level, k, LinTransStyle::Hoisting, true);
    fuse(&mut seq, &FusionConfig::full());
    seq
}

/// Runs the offload pass for the A100 with near-bank PIM.
fn offload_a100(seq: &mut OpSequence) -> OffloadStats {
    let gpu = GpuModel::new(GpuConfig::a100_80gb(), LibraryProfile::cheddar());
    let dev = PimDeviceConfig::a100_near_bank();
    offload(seq, &gpu, &dev, LayoutPolicy::ColumnPartitioned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fusion_preserves_elementwise_work(params in arb_params(),
                                         k in 2usize..12,
                                         reorder in any::<bool>()) {
        // BasicFuse merges ops; the *amount* of element-wise arithmetic
        // (limb-MACs) must not change — fusion is about ACT/PRE
        // amortization, not skipping math.
        let level = params.l_max;
        let mut b = Builder::new(params);
        let seq = b.lintrans(level, k, LinTransStyle::Hoisting, reorder);
        let before = ew_work(&seq);
        let mut fused = seq.clone();
        fuse(&mut fused, &FusionConfig::basic_only());
        prop_assert_eq!(before, ew_work(&fused), "BasicFuse must preserve EW work");
        // AutFuse also preserves NTT and automorphism volumes.
        let mut full = seq.clone();
        fuse(&mut full, &FusionConfig::full());
        prop_assert_eq!(seq.summary().total_ntt_limbs(), full.summary().total_ntt_limbs());
        prop_assert_eq!(
            seq.summary().automorphism_limbs,
            full.summary().automorphism_limbs
        );
    }

    #[test]
    fn fusion_never_increases_traffic_or_ops(params in arb_params(), k in 2usize..10) {
        let level = params.l_max;
        let mut b = Builder::new(params);
        let seq = b.lintrans(level, k, LinTransStyle::Hoisting, true);
        let mut fused = seq.clone();
        fuse(&mut fused, &FusionConfig::full());
        prop_assert!(fused.ideal_bytes() <= seq.ideal_bytes());
        prop_assert!(fused.ops.len() <= seq.ops.len());
    }

    #[test]
    fn offload_only_moves_elementwise(params in arb_params(), k in 2usize..10) {
        let mut seq = fused_lt(params, k);
        let n_ops_before = seq.ops.len();
        let stats = offload_a100(&mut seq);
        // Only element-wise ops may move; write-backs run on the GPU.
        for op in &seq.ops {
            if !matches!(op.kind, OpKind::Ew { .. }) {
                prop_assert_eq!(op.executor, Executor::Gpu, "{} left the GPU", op.label);
            }
        }
        // The pass decides per maximal element-wise run: with the inserted
        // write-backs taken out, every run is all-PIM or all-GPU.
        let original: Vec<_> = seq
            .ops
            .iter()
            .filter(|o| !matches!(o.kind, OpKind::WriteBack { .. }))
            .collect();
        prop_assert_eq!(original.len(), n_ops_before, "only write-backs are added");
        for run in original.split(|o| !o.pim_eligible()).filter(|r| !r.is_empty()) {
            prop_assert!(
                run.iter().all(|o| o.executor == run[0].executor),
                "a run of {} element-wise ops is split between GPU and PIM",
                run.len()
            );
        }
        prop_assert_eq!(
            stats.offloaded_ops,
            seq.ops.iter().filter(|o| o.executor == Executor::Pim).count()
        );
        // §V-C: each GPU-written object a PIM op reads is flushed once, at
        // its size.
        let pim_reads: HashSet<u64> = seq
            .ops
            .iter()
            .filter(|o| o.executor == Executor::Pim)
            .flat_map(|o| o.reads.iter().map(|r| r.id))
            .collect();
        let mut flushed: HashMap<u64, u64> = HashMap::new();
        for op in original.iter().filter(|o| o.executor == Executor::Gpu) {
            for w in op.writes.iter().filter(|w| pim_reads.contains(&w.id)) {
                flushed.entry(w.id).or_insert(w.bytes);
            }
        }
        let writeback_ops: u64 = seq
            .ops
            .iter()
            .map(|o| match o.kind {
                OpKind::WriteBack { bytes } => bytes,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(stats.writeback_bytes, flushed.values().sum::<u64>());
        prop_assert_eq!(stats.writeback_bytes, writeback_ops);
    }

    #[test]
    fn offload_moves_every_elementwise_op_at_paper_scale(params in paper_params(),
                                                         k in 2usize..10) {
        let mut seq = fused_lt(params, k);
        let stats = offload_a100(&mut seq);
        for op in &seq.ops {
            match op.kind {
                OpKind::Ew { .. } => prop_assert_eq!(op.executor, Executor::Pim, "{}", op.label),
                _ => prop_assert_eq!(op.executor, Executor::Gpu, "{}", op.label),
            }
        }
        prop_assert!(stats.offloaded_ops > 0);
    }

    #[test]
    fn offload_preserves_summary(params in arb_params(), k in 2usize..10) {
        let mut seq = fused_lt(params, k);
        let before = seq.summary();
        offload_a100(&mut seq);
        prop_assert_eq!(before, seq.summary(), "offload must not change the work");
    }

    #[test]
    fn hoisting_always_fewer_keyswitches_than_base(params in arb_params(),
                                                   k in 3usize..12) {
        let level = params.l_max;
        let mut b1 = Builder::new(params.clone());
        let hoist = b1.lintrans(level, k, LinTransStyle::Hoisting, true);
        let mut b2 = Builder::new(params);
        let base = b2.lintrans(level, k, LinTransStyle::Base, false);
        prop_assert!(hoist.keyswitches < base.keyswitches);
    }

    #[test]
    fn bsgs_scales_sublinearly_in_k(params in prop_oneof![
        Just(ParamSet::paper_default())], k in 9usize..32) {
        // BSGS key switches grow ~2√K, not K.
        let level = params.l_max;
        let n1 = (k as f64).sqrt().ceil() as usize;
        let mut b = Builder::new(params);
        let seq = b.lintrans_bsgs(level, k, n1);
        prop_assert!(
            seq.keyswitches as usize <= 2 * n1 + 2,
            "BSGS keyswitches {} must be ~2√K = {}",
            seq.keyswitches,
            2 * n1
        );
    }

    #[test]
    fn builders_track_bytes_consistently(params in arb_params()) {
        // Every op must touch at least one object, and object byte counts
        // must be limb-consistent (multiples of the limb size).
        let level = params.l_max;
        let limb = params.limb_bytes() as u64;
        let mut b = Builder::new(params);
        let seq = b.hmult(level);
        for op in &seq.ops {
            prop_assert!(
                !(op.reads.is_empty() && op.writes.is_empty()),
                "ops must reference data"
            );
            for r in op.reads.iter().chain(op.writes.iter()) {
                prop_assert!(r.bytes % limb == 0, "bytes must be whole limbs");
            }
        }
    }
}

#[test]
fn fusion_is_idempotent() {
    let mut b = Builder::new(ParamSet::paper_default());
    let mut seq = b.lintrans(54, 8, LinTransStyle::Hoisting, true);
    fuse(&mut seq, &FusionConfig::full());
    let once = seq.clone();
    fuse(&mut seq, &FusionConfig::full());
    assert_eq!(once.ops.len(), seq.ops.len(), "re-fusing must be a no-op");
    assert_eq!(once.summary(), seq.summary());
}

/// The fusion and offload passes as they were written before they moved
/// ops instead of cloning them: every rebuilt op list clones each op,
/// fused reads/writes are deduplicated through a `HashSet`, ExtraFuse
/// tracks each id's last element-wise writer, and the offload pass keys
/// SipHash maps by object id. Kept as the oracle the rewritten passes
/// must match op for op.
mod reference {
    use std::collections::{HashMap, HashSet};

    use anaheim::core::ir::{Executor, FuseTag, Op, OpKind, OpSequence};
    use anaheim::core::passes::{FusionConfig, OffloadStats};
    use anaheim::core::schedule::TRANSITION_NS;
    use anaheim::gpu::model::GpuModel;
    use anaheim::pim::device::PimDeviceConfig;
    use anaheim::pim::exec::{PimExecutor, PimKernelSpec};
    use anaheim::pim::isa::PimInstruction;
    use anaheim::pim::layout::LayoutPolicy;

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
                                    !aut_writes.contains(&r.id)
                                        && !a.reads.iter().any(|x| x.id == r.id)
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

    fn fuse_chains(seq: &mut OpSequence) {
        let mut last_writer: HashMap<u64, usize> = HashMap::new();
        let len = seq.ops.len();
        for i in 0..len {
            let is_ew = matches!(seq.ops[i].kind, OpKind::Ew { .. });
            if is_ew {
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
                    Err(_) => supported = false,
                }
                gpu_ns += (op.bytes_read() + op.bytes_written()) as f64 / bw
                    + gpu.config().kernel_launch_ns;
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
}

/// Random op sequences shaped like the builders' output where the passes
/// look: KeyMult/ConstAccum groups that repeat their accumulator across
/// members, tagged Aut/Add pairs (sometimes broken), adjacent element-wise
/// producer/consumer pairs, element-wise readers of a non-element-wise
/// writer's output, and unstructured ops. Ids come from a pool of eight,
/// so one op often names an id twice and unrelated segments share ids.
struct ArbSeq;

impl ArbSeq {
    fn obj(rng: &mut TestRng) -> ObjRef {
        const BYTES: [u64; 5] = [0, 1 << 12, 1 << 20, 1 << 24, 1 << 27];
        const KINDS: [ObjKind; 4] = [
            ObjKind::Ciphertext,
            ObjKind::Evk,
            ObjKind::Plaintext,
            ObjKind::Temp,
        ];
        ObjRef {
            id: rng.below(8),
            bytes: BYTES[rng.below(5) as usize],
            kind: KINDS[rng.below(4) as usize],
        }
    }

    fn objs(rng: &mut TestRng, max: u64) -> Vec<ObjRef> {
        (0..rng.below(max + 1)).map(|_| Self::obj(rng)).collect()
    }

    fn limbs(rng: &mut TestRng) -> usize {
        1 + rng.below(60) as usize
    }

    fn ew(rng: &mut TestRng) -> OpKind {
        let instrs = PimInstruction::table2(1 + rng.below(20) as usize);
        OpKind::Ew {
            instr: instrs[rng.below(instrs.len() as u64) as usize],
            limbs: Self::limbs(rng),
        }
    }

    fn non_ew(rng: &mut TestRng) -> OpKind {
        let limbs = Self::limbs(rng);
        match rng.below(4) {
            0 => OpKind::Ntt { limbs },
            1 => OpKind::Intt { limbs },
            2 => OpKind::BConv {
                src_limbs: 1 + rng.below(8) as usize,
                dst_limbs: limbs,
            },
            _ => OpKind::Aut {
                limbs,
                fused_accum: false,
            },
        }
    }

    fn op(kind: OpKind, reads: Vec<ObjRef>, writes: Vec<ObjRef>) -> Op {
        Op {
            reads,
            writes,
            ..Op::new(kind, "arb")
        }
    }

    fn segment(rng: &mut TestRng, ops: &mut Vec<Op>) {
        match rng.below(6) {
            // A KeyMult or ConstAccum group whose members all read and
            // write one accumulator, some of them twice.
            0 => {
                let group = rng.below(3) as u32;
                let tag = if rng.below(2) == 0 {
                    FuseTag::KeyMult { group }
                } else {
                    FuseTag::ConstAccum { group }
                };
                let acc = Self::obj(rng);
                for _ in 0..1 + rng.below(6) {
                    let mut reads = vec![acc, Self::obj(rng)];
                    reads.extend(Self::objs(rng, 2));
                    let mut writes = vec![acc];
                    writes.extend(Self::objs(rng, 2));
                    ops.push(Self::op(Self::ew(rng), reads, writes).fused(tag));
                }
            }
            // An Aut and the op accumulating its output, tagged as one
            // AutFuse pair; sometimes the partner's group differs or the
            // tagged op is not an automorphism.
            1 => {
                let group = rng.below(3) as u32;
                let tag = FuseTag::AutThenAccum { group };
                let out = Self::obj(rng);
                let aut_reads = Self::objs(rng, 3);
                let kind = if rng.below(4) == 0 {
                    Self::ew(rng)
                } else {
                    OpKind::Aut {
                        limbs: Self::limbs(rng),
                        fused_accum: false,
                    }
                };
                let mut writes = vec![out];
                writes.extend(Self::objs(rng, 1));
                ops.push(Self::op(kind, aut_reads.clone(), writes).fused(tag));
                let mut reads = vec![out];
                if let Some(&r) = aut_reads.first() {
                    reads.push(r);
                }
                reads.extend(Self::objs(rng, 3));
                let partner = if rng.below(4) == 0 {
                    FuseTag::AutThenAccum { group: group + 1 }
                } else {
                    tag
                };
                ops.push(Self::op(Self::ew(rng), reads, Self::objs(rng, 2)).fused(partner));
            }
            // Adjacent element-wise producer and consumer.
            2 => {
                let x = Self::obj(rng);
                let mut writes = vec![x];
                writes.extend(Self::objs(rng, 2));
                ops.push(Self::op(Self::ew(rng), Self::objs(rng, 3), writes));
                let mut reads = vec![x, Self::obj(rng), x];
                reads.extend(Self::objs(rng, 2));
                ops.push(Self::op(Self::ew(rng), reads, Self::objs(rng, 2)));
            }
            // An element-wise op reading what a non-element-wise op just
            // wrote.
            3 => {
                let x = Self::obj(rng);
                ops.push(Self::op(Self::non_ew(rng), Self::objs(rng, 3), vec![x]));
                let mut reads = vec![x];
                reads.extend(Self::objs(rng, 2));
                ops.push(Self::op(Self::ew(rng), reads, Self::objs(rng, 2)));
            }
            // A three-op element-wise chain whose last op also reads the
            // first op's output.
            4 => {
                let (x, y) = (Self::obj(rng), Self::obj(rng));
                ops.push(Self::op(Self::ew(rng), Self::objs(rng, 2), vec![x]));
                ops.push(Self::op(Self::ew(rng), vec![x], vec![y]));
                ops.push(Self::op(Self::ew(rng), vec![y, x], Self::objs(rng, 2)));
            }
            _ => {
                let kind = if rng.below(2) == 0 {
                    Self::ew(rng)
                } else {
                    Self::non_ew(rng)
                };
                ops.push(Self::op(kind, Self::objs(rng, 4), Self::objs(rng, 3)));
            }
        }
    }
}

impl Strategy for ArbSeq {
    type Value = OpSequence;

    fn new_value(&self, rng: &mut TestRng) -> OpSequence {
        let params = if rng.below(3) == 0 {
            ParamSet::custom(10, 12, 3)
        } else {
            ParamSet::paper_default()
        };
        let mut seq = OpSequence::new(params);
        for _ in 0..1 + rng.below(16) {
            ArbSeq::segment(rng, &mut seq.ops);
        }
        seq
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn passes_match_the_clone_based_reference(seq in ArbSeq,
                                              device in 0usize..3,
                                              contiguous in any::<bool>(),
                                              rtx in any::<bool>()) {
        let dev = &PimDeviceConfig::all()[device];
        let layout = if contiguous {
            LayoutPolicy::Contiguous
        } else {
            LayoutPolicy::ColumnPartitioned
        };
        let gpu_cfg = if rtx { GpuConfig::rtx4090() } else { GpuConfig::a100_80gb() };
        let gpu = GpuModel::new(gpu_cfg, LibraryProfile::cheddar());
        // All eight fusion combinations, the four presets among them.
        for bits in 0..8u8 {
            let cfg = FusionConfig {
                basic: bits & 1 != 0,
                aut: bits & 2 != 0,
                extra: bits & 4 != 0,
            };
            let (mut new, mut old) = (seq.clone(), seq.clone());
            fuse(&mut new, &cfg);
            reference::fuse(&mut old, &cfg);
            prop_assert_eq!(&new.ops, &old.ops, "fuse {:?}", cfg);
            let stats = offload(&mut new, &gpu, dev, layout);
            let ref_stats = reference::offload(&mut old, &gpu, dev, layout);
            prop_assert_eq!(stats, ref_stats, "offload stats after {:?}", cfg);
            prop_assert_eq!(&new.ops, &old.ops, "offload after {:?}", cfg);
        }
    }
}
