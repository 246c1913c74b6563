//! Op-level intermediate representation of FHE op sequences.
//!
//! Every CKKS function decomposes into (I)NTT, BConv, element-wise blocks,
//! and automorphism (§II-B). The IR keeps exactly that granularity, plus
//! the data objects each op touches (for the L2 model) and fusion/offload
//! annotations (filled by [`crate::passes`]).

use pim::isa::PimInstruction;

use crate::params::ParamSet;

/// What a data object is, which determines reuse behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A ciphertext polynomial (working data).
    Ciphertext,
    /// An evaluation-key polynomial (large, single-use streams).
    Evk,
    /// An encoded plaintext (single-use streams).
    Plaintext,
    /// A transient intermediate.
    Temp,
}

/// A reference to a data object with the touched byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjRef {
    /// Stable object identifier.
    pub id: u64,
    /// Bytes touched by the op.
    pub bytes: u64,
    /// Object class.
    pub kind: ObjKind,
}

/// Which execution engine runs an op (set by the offload pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Regular GPU kernel.
    Gpu,
    /// Anaheim PIM kernel.
    Pim,
}

impl Executor {
    /// The engine's metric label and stream name (`"gpu"`/`"pim"`).
    pub fn name(self) -> &'static str {
        match self {
            Executor::Gpu => "gpu",
            Executor::Pim => "pim",
        }
    }
}

/// Fusion-opportunity annotations consumed by [`crate::passes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseTag {
    /// One digit of a KeyMult inner product; group id joins the digits that
    /// BasicFuse merges into a `PAccum⟨D⟩`.
    KeyMult {
        /// Fusion group.
        group: u32,
    },
    /// One term of a constant accumulation; BasicFuse merges a group into
    /// `CAccum⟨K⟩`.
    ConstAccum {
        /// Fusion group.
        group: u32,
    },
    /// An automorphism whose result is immediately accumulated; AutFuse
    /// merges it with the following `Add` into an `AutAccum` kernel.
    AutThenAccum {
        /// Fusion group (pairs the Aut with its Add).
        group: u32,
    },
}

/// The op kinds of the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Forward NTT over `limbs` limbs.
    Ntt {
        /// Limbs transformed.
        limbs: usize,
    },
    /// Inverse NTT over `limbs` limbs.
    Intt {
        /// Limbs transformed.
        limbs: usize,
    },
    /// Basis conversion from `src_limbs` to `dst_limbs` limbs.
    BConv {
        /// Source limbs.
        src_limbs: usize,
        /// Destination limbs.
        dst_limbs: usize,
    },
    /// An element-wise block over `limbs` limbs, with its natural PIM
    /// instruction mapping.
    Ew {
        /// The Table II instruction this block lowers to.
        instr: PimInstruction,
        /// Limbs processed.
        limbs: usize,
    },
    /// Automorphism (data permutation) over `limbs` limbs; `fused_accum`
    /// marks the AutAccum kernel produced by AutFuse.
    Aut {
        /// Limbs permuted.
        limbs: usize,
        /// Whether the accumulation is fused into the same kernel.
        fused_accum: bool,
    },
    /// Explicit L2→DRAM write-back for PIM coherence (§V-C).
    WriteBack {
        /// Bytes flushed.
        bytes: u64,
    },
}

impl OpKind {
    /// The limb count the op processes (0 for write-backs).
    pub fn limbs(&self) -> usize {
        match *self {
            OpKind::Ntt { limbs }
            | OpKind::Intt { limbs }
            | OpKind::Ew { limbs, .. }
            | OpKind::Aut { limbs, .. } => limbs,
            OpKind::BConv { dst_limbs, .. } => dst_limbs,
            OpKind::WriteBack { .. } => 0,
        }
    }
}

/// One op of a sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The op kind.
    pub kind: OpKind,
    /// Objects read.
    pub reads: Vec<ObjRef>,
    /// Objects written.
    pub writes: Vec<ObjRef>,
    /// Fusion annotation.
    pub fuse: Option<FuseTag>,
    /// Assigned executor (default GPU; the offload pass moves eligible
    /// element-wise blocks to PIM).
    pub executor: Executor,
    /// Human-readable label for Gantt charts.
    pub label: &'static str,
}

impl Op {
    /// Creates a GPU op.
    pub fn new(kind: OpKind, label: &'static str) -> Self {
        Self {
            kind,
            reads: Vec::new(),
            writes: Vec::new(),
            fuse: None,
            executor: Executor::Gpu,
            label,
        }
    }

    /// Adds a read.
    pub fn read(mut self, r: ObjRef) -> Self {
        self.reads.push(r);
        self
    }

    /// Adds a write.
    pub fn write(mut self, w: ObjRef) -> Self {
        self.writes.push(w);
        self
    }

    /// Sets the fusion tag.
    pub fn fused(mut self, tag: FuseTag) -> Self {
        self.fuse = Some(tag);
        self
    }

    /// Whether the offload pass may move this op to PIM: element-wise
    /// blocks only (§V-A: (I)NTT/BConv are compute-bound, automorphism's
    /// data movement is hostile to PIM).
    pub fn pim_eligible(&self) -> bool {
        matches!(self.kind, OpKind::Ew { .. })
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.reads.iter().map(|r| r.bytes).sum()
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.writes.iter().map(|w| w.bytes).sum()
    }
}

/// Allocates fresh object ids.
#[derive(Debug, Default)]
pub struct ObjAlloc {
    next: u64,
}

impl ObjAlloc {
    /// A fresh allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new object reference.
    pub fn fresh(&mut self, kind: ObjKind, bytes: u64) -> ObjRef {
        let id = self.next;
        self.next += 1;
        ObjRef { id, bytes, kind }
    }

    /// Number of ids handed out.
    pub fn count(&self) -> u64 {
        self.next
    }
}

/// Aggregate op counts of a sequence, comparable with the functional
/// library's [`ckks::opcount`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSummary {
    /// Forward-NTT limb count.
    pub ntt_limbs: u64,
    /// Inverse-NTT limb count.
    pub intt_limbs: u64,
    /// BConv source×target limb products.
    pub bconv_limb_products: u64,
    /// Element-wise limb ops (compound instructions count their underlying
    /// per-limb MAC pairs, matching the functional library's accounting).
    pub ew_limb_ops: u64,
    /// Automorphism limb count.
    pub automorphism_limbs: u64,
}

impl OpSummary {
    /// Total (I)NTT limbs (the Fig. 1 table metric).
    pub fn total_ntt_limbs(&self) -> u64 {
        self.ntt_limbs + self.intt_limbs
    }
}

/// A complete op sequence with its parameter descriptor.
#[derive(Debug, Clone)]
pub struct OpSequence {
    /// The parameter set the ops were generated under.
    pub params: ParamSet,
    /// The ops in issue order.
    pub ops: Vec<Op>,
    /// Number of key switches (ModDown bundles), maintained by the
    /// builders; matches the functional library's `keyswitches` counter.
    pub keyswitches: u64,
}

impl OpSequence {
    /// An empty sequence.
    pub fn new(params: ParamSet) -> Self {
        Self {
            params,
            ops: Vec::new(),
            keyswitches: 0,
        }
    }

    /// Appends an op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Appends all ops of another sequence (parameters must match).
    ///
    /// # Panics
    ///
    /// Panics if the parameter sets differ.
    pub fn extend(&mut self, other: OpSequence) {
        assert_eq!(self.params, other.params, "parameter mismatch");
        self.keyswitches += other.keyswitches;
        self.ops.extend(other.ops);
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Aggregate counters (for cross-validation with the functional
    /// library and the Fig. 1 table).
    pub fn summary(&self) -> OpSummary {
        let mut s = OpSummary::default();
        for op in &self.ops {
            match op.kind {
                OpKind::Ntt { limbs } => s.ntt_limbs += limbs as u64,
                OpKind::Intt { limbs } => s.intt_limbs += limbs as u64,
                OpKind::BConv {
                    src_limbs,
                    dst_limbs,
                } => s.bconv_limb_products += (src_limbs * dst_limbs) as u64,
                OpKind::Ew { instr, limbs } => {
                    let factor = match instr {
                        PimInstruction::PAccum(k) => 2 * k,
                        PimInstruction::CAccum(k) => 2 * k,
                        PimInstruction::PMult | PimInstruction::PMac => 2,
                        PimInstruction::Tensor => 4,
                        PimInstruction::TensorSq => 3,
                        PimInstruction::ModDownEp => 2,
                        _ => 1,
                    };
                    s.ew_limb_ops += (factor * limbs) as u64;
                }
                OpKind::Aut { limbs, .. } => s.automorphism_limbs += limbs as u64,
                OpKind::WriteBack { .. } => {}
            }
        }
        s
    }

    /// Total DRAM bytes the sequence would touch with zero cache reuse.
    pub fn ideal_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| o.bytes_read() + o.bytes_written())
            .sum()
    }

    /// Bytes of evk and plaintext reads (the single-use streams PIM
    /// eliminates from the GPU side, §V-D).
    pub fn stream_bytes(&self) -> u64 {
        self.ops
            .iter()
            .flat_map(|o| o.reads.iter())
            .filter(|r| matches!(r.kind, ObjKind::Evk | ObjKind::Plaintext))
            .map(|r| r.bytes)
            .sum()
    }

    /// Bytes of evaluation-key reads alone, counting every read (an object
    /// read twice is charged twice). This is the sequence's *uncached* evk
    /// traffic: what a run pulls from DRAM with no evk cache and no
    /// same-tenant amortization — the baseline the serving layer's
    /// hit/miss/saved accounting conserves against.
    pub fn evk_read_bytes(&self) -> u64 {
        self.ops
            .iter()
            .flat_map(|o| o.reads.iter())
            .filter(|r| r.kind == ObjKind::Evk)
            .map(|r| r.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ParamSet {
        ParamSet::paper_default()
    }

    #[test]
    fn op_builder_pattern() {
        let mut alloc = ObjAlloc::new();
        let a = alloc.fresh(ObjKind::Ciphertext, 1024);
        let b = alloc.fresh(ObjKind::Evk, 4096);
        let op = Op::new(
            OpKind::Ew {
                instr: PimInstruction::Add,
                limbs: 4,
            },
            "test",
        )
        .read(a)
        .read(b)
        .write(alloc.fresh(ObjKind::Temp, 1024));
        assert_eq!(op.bytes_read(), 5120);
        assert_eq!(op.bytes_written(), 1024);
        assert!(op.pim_eligible());
        assert_eq!(alloc.count(), 3);
    }

    #[test]
    fn only_elementwise_is_pim_eligible() {
        let ntt = Op::new(OpKind::Ntt { limbs: 4 }, "ntt");
        let aut = Op::new(
            OpKind::Aut {
                limbs: 4,
                fused_accum: false,
            },
            "aut",
        );
        let ew = Op::new(
            OpKind::Ew {
                instr: PimInstruction::Mult,
                limbs: 4,
            },
            "mult",
        );
        assert!(!ntt.pim_eligible());
        assert!(!aut.pim_eligible());
        assert!(ew.pim_eligible());
    }

    #[test]
    fn summary_counts() {
        let mut seq = OpSequence::new(params());
        seq.push(Op::new(OpKind::Ntt { limbs: 10 }, "ntt"));
        seq.push(Op::new(OpKind::Intt { limbs: 5 }, "intt"));
        seq.push(Op::new(
            OpKind::BConv {
                src_limbs: 14,
                dst_limbs: 54,
            },
            "bconv",
        ));
        seq.push(Op::new(
            OpKind::Ew {
                instr: PimInstruction::PAccum(4),
                limbs: 68,
            },
            "keymult",
        ));
        let s = seq.summary();
        assert_eq!(s.ntt_limbs, 10);
        assert_eq!(s.intt_limbs, 5);
        assert_eq!(s.total_ntt_limbs(), 15);
        assert_eq!(s.bconv_limb_products, 14 * 54);
        assert_eq!(s.ew_limb_ops, 8 * 68);
    }

    #[test]
    fn stream_bytes_filters_by_kind() {
        let mut alloc = ObjAlloc::new();
        let mut seq = OpSequence::new(params());
        let ct = alloc.fresh(ObjKind::Ciphertext, 100);
        let evk = alloc.fresh(ObjKind::Evk, 1000);
        let pt = alloc.fresh(ObjKind::Plaintext, 10);
        seq.push(
            Op::new(
                OpKind::Ew {
                    instr: PimInstruction::Mac,
                    limbs: 1,
                },
                "mac",
            )
            .read(ct)
            .read(evk)
            .read(pt),
        );
        assert_eq!(seq.stream_bytes(), 1010);
        assert_eq!(seq.ideal_bytes(), 1110);
        assert_eq!(seq.evk_read_bytes(), 1000, "evk reads alone");
    }

    #[test]
    fn evk_read_bytes_charges_repeat_reads() {
        // MinKS-style reuse reads the same evk object once per step; the
        // uncached baseline charges each read.
        let mut alloc = ObjAlloc::new();
        let mut seq = OpSequence::new(params());
        let evk = alloc.fresh(ObjKind::Evk, 500);
        for _ in 0..3 {
            seq.push(
                Op::new(
                    OpKind::Ew {
                        instr: PimInstruction::PMac,
                        limbs: 1,
                    },
                    "pmac",
                )
                .read(evk),
            );
        }
        assert_eq!(seq.evk_read_bytes(), 1500);
    }
}
