//! `serving` — the deadline-aware serving layer on top of the Anaheim
//! runtime (see `DESIGN.md`, "Serving & degradation").
//!
//! The paper's framework executes one FHE program at a time; this crate
//! adds the layer a deployment needs around it:
//!
//! - [`request`] — multi-tenant requests with priorities and deadlines,
//!   typed admission rejections, and honest outcomes (late execution is a
//!   [`request::Outcome::DeadlineMiss`], never a success).
//! - [`queue`] — a bounded admission queue with deterministic pop order:
//!   plain data behind `&mut self`, filled and drained serially in virtual
//!   time by the shard that owns it (no locks, no async runtime).
//! - [`engine`] — the serving configuration, request preparation (each
//!   template once per fleet), and the same-tenant batch tracker.
//! - [`router`] — seeded rendezvous hashing from tenants to replica
//!   shards: stable homes, minimal movement on failover.
//! - [`shard`] — the one serving path, [`ShardedEngine::run_stream`]:
//!   replica shards with deterministic failover, each the executor of its
//!   own runtime, lanes and persistent
//!   [`anaheim_core::health::HealthRegistry`], which the breaker-gated
//!   scheduler reads ([`anaheim_core::schedule::RunOptions::health`]);
//!   sick shards drain, cool down, and
//!   re-admit through a probe while the router re-routes their tenants
//!   ([`request::Outcome::Rerouted`]) — and only a fully sick fleet
//!   rejects ([`request::Rejected::AllShardsUnhealthy`]). A single-engine
//!   trace runs as a one-shard fleet ([`ShardConfig::new`]`(1)`).
//! - [`soak`] — the deterministic chaos-soak harness: seeded mixed-workload
//!   traces under seeded fault schedules, with streaming machine-checked
//!   invariants and bit-identical results across `ANAHEIM_THREADS` — a
//!   million requests through the fleet in bounded memory.

pub mod engine;
pub mod queue;
pub mod request;
pub mod router;
pub mod shard;
pub mod soak;

pub use engine::{BatchStats, OrderingConfig, ServingConfig};
pub use queue::{AdmissionQueue, QueueKey, Queued};
pub use request::{Outcome, Priority, Rejected, Request, Response};
pub use router::ShardRouter;
pub use shard::{
    FleetCounters, ShardConfig, ShardCounters, ShardSnapshot, ShardState, ShardTransition,
    ShardedEngine, StreamObs,
};
pub use soak::{
    run_soak_stream, run_soak_stream_with, serving_config_for, shard_config_for, SoakConfig,
    StreamOutcome, StreamSummary, TraceGen,
};
