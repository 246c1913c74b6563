//! `anaheim-core` — the paper's primary contribution: the Anaheim software
//! framework that co-executes FHE CKKS workloads on a GPU and in-memory
//! PIM units (§V).
//!
//! The pipeline:
//!
//! 1. [`params`] — paper-scale CKKS parameter descriptors (Table IV),
//!    including the `D`-sweep used by Fig. 2b.
//! 2. [`ir`] + [`build`] — an op-level intermediate representation of FHE
//!    op sequences (ModUp, KeyMult, ModDown, element-wise blocks,
//!    automorphism) and builders for HADD/PMULT/HMULT/HROT, hoisted /
//!    MinKS / baseline linear transforms (Fig. 1, Fig. 5), and
//!    fftIter-decomposed bootstrapping.
//! 3. [`passes`] — kernel fusion (BasicFuse → `PAccum`/`CAccum`,
//!    AutFuse → `AutAccum`, ExtraFuse for the GPU-only baseline) and the
//!    PIM offload partitioner that carves out element-wise blocks and
//!    inserts the coherence write-backs of §V-C.
//! 4. [`schedule`] — the stream-ordered GPU↔PIM scheduler with transition
//!    overheads, the L2 model, and Gantt/energy reporting.
//! 5. [`framework`] — the top-level [`framework::Anaheim`] API tying a GPU
//!    model and a PIM device together, producing [`report::ExecutionReport`]s.
//! 6. [`telemetry`] — the deterministic observability glue: a
//!    [`telemetry::Telemetry`] sink (virtual-time spans + typed metrics,
//!    backed by the `obs` crate) that the scheduler, serving layer, and
//!    workload runner record into when tracing is requested.

pub mod build;
pub mod error;
pub mod framework;
pub mod health;
pub mod ir;
pub mod params;
pub mod passes;
pub mod report;
pub mod schedule;
pub mod telemetry;

pub use error::RunError;
pub use framework::{Anaheim, AnaheimConfig};
pub use health::{
    BankStatus, BreakerConfig, BreakerState, BreakerTransition, HealthCounters, HealthRegistry,
    HealthSnapshot, RetryPolicy,
};
pub use ir::{Op, OpKind, OpSequence};
pub use params::ParamSet;
pub use report::ExecutionReport;
pub use telemetry::Telemetry;
