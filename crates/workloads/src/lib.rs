//! The six FHE CKKS workloads of the paper's evaluation (§VII-A), expressed
//! as op-sequence generators over the Anaheim IR.
//!
//! Each workload is a list of *segments* — an op sequence plus a repeat
//! count — so that iterative workloads (HELR's 32 training iterations,
//! RNN's 200 cell evaluations, Sort's ~100 comparator stages) stay cheap to
//! schedule: one representative instance runs through the model and
//! repeats multiply the totals (FHE control flow is static, §V-C, so every
//! instance costs the same).
//!
//! Memory footprints are estimated from the working set each paper
//! workload is known to need (§VIII-B: ResNet20 exceeds the RTX 4090's
//! 24 GB; ResNet18-AESPA needs over 40 GB).

pub mod catalog;
pub mod runner;

pub use catalog::Workload;
pub use runner::{run_workload, run_workload_with, WorkloadNumbers, WorkloadReport};
