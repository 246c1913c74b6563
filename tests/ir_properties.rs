//! Property tests over the Anaheim IR, builders, and passes: invariants
//! that must hold for *any* parameter choice, not just the paper's.

use std::collections::{HashMap, HashSet};

use anaheim::core::build::{Builder, LinTransStyle};
use anaheim::core::ir::{Executor, OpKind, OpSequence};
use anaheim::core::params::ParamSet;
use anaheim::core::passes::{fuse, offload, FusionConfig, OffloadStats};
use anaheim::gpu::config::{GpuConfig, LibraryProfile};
use anaheim::gpu::model::GpuModel;
use anaheim::pim::device::PimDeviceConfig;
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
