//! Replica shards with deterministic failover — the one serving path.
//!
//! A [`ShardedEngine`] partitions the fleet into N replica shards behind a
//! seeded rendezvous [`ShardRouter`]. Each shard is its own executor: it
//! owns a runtime (and so a whole PIM stack), a [`HealthRegistry`] breaker
//! set, the same-tenant batch tracker, an admission queue, and a
//! virtual-time lane cursor. A single-engine trace is a one-shard
//! fleet: [`ShardConfig::new`]`(1)` never drains its lone replica, so every
//! request is admitted, dispatched and executed exactly as on one engine
//! with one shared health registry. Blast radius is per-shard: when
//! a shard's breakers trip past [`ShardConfig::unhealthy_open_fraction`],
//! it stops accepting, drains its in-flight work, cools down, and is
//! re-admitted through a HalfOpen-style probe, while the router sends its
//! tenants to the next-ranked healthy replica with typed
//! [`Outcome::Rerouted`] accounting. Only when *no* shard accepts does a
//! request fail, with [`Rejected::AllShardsUnhealthy`].
//!
//! With [`ShardConfig::hedging`] enabled, the fleet also re-executes
//! suspicious primaries: a dispatch whose projected deadline margin is
//! thin, a run cancelled over budget, or one whose end-to-end integrity
//! verdict fails is raced/re-run on the tenant's rendezvous-next sibling
//! shard (per-tenant token bucket guarding against hedge storms), and the
//! better execution is reported as [`Outcome::Hedged`] — exactly one
//! outcome per request, with the loser's virtual time accounted as waste.
//!
//! The shard state machine mirrors the per-bank breaker one level up:
//!
//! ```text
//! Up --breaker-threshold--> Draining --drained--> Cooling
//!  ^                                                 | cooldown elapsed
//!  +--probe-ok-- Probation <-------------------------+
//!        (probe-fail: back to Cooling, cooldown doubled up to a cap)
//! ```
//!
//! Everything runs on the caller's thread, in virtual time: shards
//! advance in id order to each arrival, routing reads only (seed, tenant,
//! accepting set), and telemetry records from the dispatch lane — so
//! responses, per-shard [`HealthSnapshot`]s, and the rendered snapshot
//! text are byte-identical for every `ANAHEIM_THREADS` value. The fleet
//! prepares each distinct request template once, which is what lets
//! [`ShardedEngine::run_stream`] push a million requests through in
//! bounded memory when paired with a [`StreamingTraceSink`].

use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;

use anaheim_core::framework::Anaheim;
use anaheim_core::health::{
    BreakerConfig, BreakerState, BreakerTransition, HealthRegistry, HealthSnapshot,
};
use anaheim_core::schedule::RunOptions;
use anaheim_core::telemetry::{names, shard_track, Telemetry};
use anaheim_core::RunError;
use obs::StreamingTraceSink;

use crate::engine::{
    earliest_lane, next_dispatch, projected_start_from_keys, BatchStats, BatchTracker, Prepared,
    PreparedTemplates, ServingConfig,
};
use crate::queue::{AdmissionQueue, QueueKey};
use crate::request::{Outcome, Rejected, Request, Response};
use crate::router::ShardRouter;

/// Tuning of the shard layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of replica shards (at least one).
    pub shards: u32,
    /// Seed of the rendezvous router.
    pub router_seed: u64,
    /// A shard whose registry's [`open_fraction`] reaches this value stops
    /// accepting and drains (and a probe returning at or above it fails).
    ///
    /// [`open_fraction`]: anaheim_core::health::HealthRegistry::open_fraction
    pub unhealthy_open_fraction: f64,
    /// Cooldown between finishing a drain and the re-admission probe
    /// (virtual ns). Doubles after each failed probe, up to 128 ms.
    pub drain_cooldown_ns: f64,
    /// Hedged re-execution: when a primary looks risky at dispatch
    /// (projected deadline margin below a quarter of its estimate) or
    /// fails mid-flight (cancelled over budget, or its end-to-end
    /// integrity verdict fails), re-run it deterministically on the
    /// rendezvous-next sibling shard and keep the better outcome.
    /// Off by default: a fleet without hedging is bit-identical to one
    /// built before the knob existed.
    pub hedging: bool,
    /// Per-tenant token-bucket burst: how many hedges a tenant may launch
    /// back-to-back before the refill rate gates it (hedge-storm guard).
    pub hedge_burst: f64,
    /// Per-tenant token refill rate, in hedges per virtual second.
    pub hedge_refill_per_s: f64,
}

impl ShardConfig {
    /// `shards` replicas with the default failover tuning: drain at half
    /// the breakers open, 8 ms drain cooldown doubling to a 128 ms cap.
    /// Hedging is off. A lone replica never drains: it has no sibling to
    /// take its tenants, and `open_fraction` never exceeds 1.
    pub fn new(shards: u32) -> Self {
        let shards = shards.max(1);
        Self {
            shards,
            router_seed: 0x5AAD_0001,
            unhealthy_open_fraction: if shards == 1 { f64::INFINITY } else { 0.5 },
            drain_cooldown_ns: 8.0e6,
            hedging: false,
            hedge_burst: 4.0,
            hedge_refill_per_s: 200.0,
        }
    }
}

/// Shard cooldown growth factor after a failed probe.
const COOLDOWN_MULTIPLIER: f64 = 2.0;

/// Upper bound on the shard cooldown (ns).
const MAX_COOLDOWN_NS: f64 = 1.28e8;

/// A primary whose projected margin `deadline - (start + estimate)` is
/// below this fraction of its estimate is hedged at dispatch.
const HEDGE_SLACK_FRACTION: f64 = 0.25;

/// Salt folded into a hedged request's fault-stream derivation, so the
/// hedge replays under its own independent (but still per-request
/// deterministic) fault environment instead of re-hitting the primary's
/// exact fault sequence.
const HEDGE_SALT: u64 = 0x4ED6_E5A1_0F0C_9B3D;

/// Shard lifecycle states (the breaker cycle, one level up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Healthy and accepting.
    Up,
    /// Past the breaker threshold: not accepting, finishing queued work.
    Draining,
    /// Drained and waiting out its cooldown.
    Cooling,
    /// Accepting exactly one probe request to test re-admission.
    Probation,
}

impl ShardState {
    /// Numeric code for the `anaheim_shard_state` gauge.
    pub fn code(&self) -> u8 {
        match self {
            ShardState::Up => 0,
            ShardState::Draining => 1,
            ShardState::Cooling => 2,
            ShardState::Probation => 3,
        }
    }
}

impl fmt::Display for ShardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardState::Up => "up",
            ShardState::Draining => "draining",
            ShardState::Cooling => "cooling",
            ShardState::Probation => "probation",
        })
    }
}

/// Monotone per-shard lifecycle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Requests this shard served for another shard's tenants.
    pub rerouted_in: u64,
    /// Up → Draining transitions.
    pub drains: u64,
    /// Successful probes (Probation → Up).
    pub readmits: u64,
    /// Failed probes (Probation → Cooling).
    pub probe_failures: u64,
}

/// One shard state change, for the per-shard transition log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardTransition {
    /// The shard.
    pub shard: u32,
    /// State before.
    pub from: ShardState,
    /// State after.
    pub to: ShardState,
    /// Virtual time of the transition (ns).
    pub at_ns: f64,
    /// `"breaker-threshold"`, `"drained"`, `"cooldown"`, `"probe-ok"`, or
    /// `"probe-fail"`.
    pub cause: &'static str,
}

/// Comparable view of one shard — what the thread-count determinism gate
/// diffs, via [`ShardedEngine::render_snapshots`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// The shard.
    pub shard: u32,
    /// Current lifecycle state.
    pub state: ShardState,
    /// Lifecycle counters.
    pub counters: ShardCounters,
    /// The shard's own health registry snapshot.
    pub health: HealthSnapshot,
    /// The full shard transition log.
    pub transitions: Vec<ShardTransition>,
    /// The full breaker transition log of the shard's registry. Compared
    /// by the determinism checks, but not rendered into the snapshot text.
    pub breaker_log: Vec<BreakerTransition>,
    /// Finish time of the shard's busiest lane (ns).
    pub last_finish_ns: f64,
    /// Same-tenant batch evk accounting (all zeros with
    /// [`ServingConfig::batching`] off).
    pub evk: BatchStats,
    /// Virtual ns the evk lane credit took off this shard's lanes (0.0
    /// with [`ServingConfig::ordering`] off).
    pub evk_saved_ns: f64,
}

/// Fleet-level routing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Requests submitted to the fleet.
    pub submitted: u64,
    /// Requests routed away from a non-accepting home shard.
    pub rerouted: u64,
    /// Requests rejected because no shard was accepting.
    pub rejected_all_unhealthy: u64,
    /// Hedges actually executed on a sibling shard. Each adds one to the
    /// sibling's `submitted` health counter, so per-shard conservation
    /// reads `executions = fleet submissions + hedges_launched`.
    pub hedges_launched: u64,
    /// Hedges whose execution beat the primary (better outcome, or the
    /// same outcome class finishing strictly earlier).
    pub hedges_won: u64,
    /// Hedges the primary still beat — the hedge's virtual time was
    /// wasted work, accounted in [`Outcome::Hedged::loser_consumed_ns`].
    pub hedges_wasted: u64,
    /// Hedge triggers suppressed by the per-tenant token bucket or for
    /// lack of an accepting sibling; the primary outcome stands.
    pub hedges_suppressed: u64,
}

/// A primary execution held back for hedge resolution: the fleet decides
/// whether to re-run it on the rendezvous-next sibling, then emits exactly
/// one response for the request.
#[derive(Debug)]
struct HedgeCandidate {
    /// Clone of the prepared request (Arc-backed, so cheap) for the hedge
    /// execution.
    prepared: Prepared,
    primary_shard: u32,
    /// The primary's unwrapped response.
    primary_resp: Response,
    primary_start_ns: f64,
    primary_finish_ns: f64,
    /// When the hedge may start: the primary's dispatch time for a risky
    /// projection (the hedge races it), its finish time for a mid-flight
    /// failure (nothing suspected it earlier).
    trigger_ns: f64,
}

/// Severity rank for hedge-winner selection — lower is better; ties break
/// to the primary (and, within a rank, to the strictly earlier finish).
fn outcome_rank(o: &Outcome) -> u8 {
    match o.final_outcome() {
        Outcome::Completed { .. } => 0,
        Outcome::DeadlineMiss { .. } => 1,
        Outcome::Cancelled { .. } => 2,
        Outcome::IntegrityFailure { .. } => 3,
        // `final_outcome` never returns a wrapper, and executions are
        // never sheds; rank them last for exhaustiveness.
        Outcome::Rejected(_)
        | Outcome::Rerouted { .. }
        | Outcome::Hedged { .. }
        | Outcome::Batched { .. } => 4,
    }
}

/// Wraps a winning execution's response in [`Outcome::Hedged`].
fn hedged(winner: u32, loser_consumed_ns: f64, resp: Response) -> Response {
    let Response {
        id,
        tenant,
        priority,
        label,
        outcome,
    } = resp;
    Response {
        id,
        tenant,
        priority,
        label,
        outcome: Outcome::Hedged {
            winner,
            loser_consumed_ns,
            outcome: Box::new(outcome),
        },
    }
}

/// Streaming observability for [`ShardedEngine::run_stream`]: completed
/// spans drain into a bounded sink after every request, and the Prometheus
/// text can be re-written to a file on a fixed cadence — both keep memory
/// constant over arbitrarily long runs.
#[derive(Debug)]
pub struct StreamObs<'a> {
    tel: &'a mut Telemetry,
    sink: &'a mut StreamingTraceSink,
    prom_path: Option<PathBuf>,
    prom_every: u64,
    prom_io_error: Option<std::io::Error>,
    ticks: u64,
}

impl<'a> StreamObs<'a> {
    /// Streams `tel`'s completed spans into `sink` after every request.
    pub fn new(tel: &'a mut Telemetry, sink: &'a mut StreamingTraceSink) -> Self {
        Self {
            tel,
            sink,
            prom_path: None,
            prom_every: 0,
            prom_io_error: None,
            ticks: 0,
        }
    }

    /// Additionally rewrites the Prometheus exposition to `path` every
    /// `every` requests (0 disables). IO errors are latched, not fatal —
    /// the virtual-time run never depends on filesystem state.
    pub fn with_prometheus(mut self, path: PathBuf, every: u64) -> Self {
        self.prom_path = Some(path);
        self.prom_every = every;
        self
    }

    /// The first error hit writing the Prometheus file, if any.
    pub fn prom_io_error(&self) -> Option<&std::io::Error> {
        self.prom_io_error.as_ref()
    }

    fn after_request(&mut self) {
        self.sink.drain_from(&mut self.tel.trace);
        self.ticks += 1;
        if self.prom_every > 0 && self.ticks.is_multiple_of(self.prom_every) {
            if let (Some(path), None) = (&self.prom_path, &self.prom_io_error) {
                if let Err(e) = std::fs::write(path, self.tel.prometheus()) {
                    self.prom_io_error = Some(e);
                }
            }
        }
    }
}

/// Records a zero-width shed marker at the request's arrival time on
/// `track` (`"shard-N"` for a shard's sheds, `"serving"` for a fleet-wide
/// rejection).
fn shed_marker(
    tel: Option<&mut Telemetry>,
    p: &Prepared,
    reason: &'static str,
    track: &'static str,
) {
    if let Some(t) = tel {
        t.set_base_ns(0.0);
        t.trace.leaf(
            format!("req{} shed", p.id),
            "shed",
            track,
            p.arrival_ns,
            p.arrival_ns,
            vec![("reason", reason.into())],
        );
    }
}

/// The response rejecting `p` for `reason`.
fn rejection(p: &Prepared, reason: Rejected) -> Response {
    Response {
        id: p.id,
        tenant: p.tenant,
        priority: p.priority,
        label: p.label,
        outcome: Outcome::Rejected(reason),
    }
}

/// One replica shard, which is also its own executor: the runtime, a
/// health registry that persists across requests (a bank that went sick
/// is still routed around for every later request), the batch tracker,
/// the queue, the lanes, and the lifecycle state.
#[derive(Debug)]
struct Shard {
    id: u32,
    rt: Anaheim,
    registry: HealthRegistry,
    cancel_over_budget: bool,
    /// `None` with [`ServingConfig::batching`] off.
    batch: Option<BatchTracker>,
    queue: AdmissionQueue<Prepared>,
    lanes: Vec<f64>,
    state: ShardState,
    /// When a Cooling shard may enter Probation (ns).
    readmit_at_ns: f64,
    /// Cooldown the next drain/failed probe will use.
    next_cooldown_ns: f64,
    /// A probe request is queued or running; Probation admits no more.
    probe_inflight: bool,
    counters: ShardCounters,
    transitions: Vec<ShardTransition>,
}

impl Shard {
    /// Builds the runtime and a health registry sized for its PIM device.
    fn new(id: u32, cfg: &ServingConfig, shard_cfg: &ShardConfig) -> Self {
        let mut platform = cfg.platform.clone();
        // Requests carry their own fault environments.
        platform.fault = None;
        let registry = match &platform.pim {
            Some(dev) => HealthRegistry::for_device(dev, BreakerConfig::default()),
            None => HealthRegistry::new(1, BreakerConfig::default()),
        };
        let batch = cfg
            .batching
            .then(|| BatchTracker::new(cfg.ordering, platform.gpu.dram_bw_gbps));
        Self {
            id,
            rt: Anaheim::new(platform),
            registry,
            cancel_over_budget: cfg.cancel_over_budget,
            batch,
            lanes: vec![0.0; cfg.workers.max(1)],
            queue: AdmissionQueue::new(cfg.queue_capacity.max(1)),
            state: ShardState::Up,
            readmit_at_ns: 0.0,
            next_cooldown_ns: shard_cfg.drain_cooldown_ns,
            probe_inflight: false,
            counters: ShardCounters::default(),
            transitions: Vec::new(),
        }
    }

    /// Records a state change: the log entry plus a zero-width marker span
    /// on this shard's track.
    fn transition(
        &mut self,
        to: ShardState,
        at_ns: f64,
        cause: &'static str,
        tel: Option<&mut Telemetry>,
    ) {
        let from = self.state;
        self.state = to;
        self.transitions.push(ShardTransition {
            shard: self.id,
            from,
            to,
            at_ns,
            cause,
        });
        if let Some(t) = tel {
            t.set_base_ns(0.0);
            t.trace.leaf(
                format!("shard{} {from}\u{2192}{to}", self.id),
                "shard",
                shard_track(self.id),
                at_ns,
                at_ns,
                vec![("cause", cause.into())],
            );
        }
    }

    /// Up → Draining when the registry's open fraction has reached the
    /// threshold after an execution that finished at `at_ns`.
    fn drain_if_sick(&mut self, at_ns: f64, cfg: &ShardConfig, tel: Option<&mut Telemetry>) {
        if self.state == ShardState::Up
            && self.registry.open_fraction() >= cfg.unhealthy_open_fraction
        {
            self.counters.drains += 1;
            self.transition(ShardState::Draining, at_ns, "breaker-threshold", tel);
        }
    }

    /// Advances the lifecycle clock to `now` (Cooling → Probation when the
    /// cooldown has elapsed) and reports whether the shard accepts a new
    /// request at `now`.
    fn poll_accepting(&mut self, now: f64, tel: Option<&mut Telemetry>) -> bool {
        if self.state == ShardState::Cooling && now >= self.readmit_at_ns {
            let at = self.readmit_at_ns;
            self.probe_inflight = false;
            self.transition(ShardState::Probation, at, "cooldown", tel);
        }
        match self.state {
            ShardState::Up => true,
            ShardState::Probation => !self.probe_inflight,
            ShardState::Draining | ShardState::Cooling => false,
        }
    }

    /// Wraps an outcome in [`Outcome::Rerouted`] when the request was sent
    /// here from another home shard.
    fn wrap(rerouted_from: Option<u32>, to_shard: u32, mut resp: Response) -> Response {
        if let Some(from_shard) = rerouted_from {
            resp.outcome = Outcome::Rerouted {
                from_shard,
                to_shard,
                outcome: Box::new(resp.outcome),
            };
        }
        resp
    }

    /// Admission (serial, virtual time) — the only admission routine:
    /// queue-full and deadline-infeasible sheds against this shard's queue
    /// and lanes. A request admitted while on Probation is the shard's
    /// probe.
    fn admit(
        &mut self,
        p: Prepared,
        now: f64,
        mut tel: Option<&mut Telemetry>,
        out: &mut Vec<Response>,
    ) {
        self.registry.counters.submitted += 1;
        let track = shard_track(self.id);
        if self.queue.len() >= self.queue.capacity() {
            self.registry.counters.shed_queue_full += 1;
            shed_marker(tel.as_deref_mut(), &p, "queue-full", track);
            out.push(Self::wrap(
                p.rerouted_from,
                self.id,
                rejection(&p, Rejected::QueueFull),
            ));
            return;
        }
        // Simulates the lanes working through the queue in pop order with
        // the candidate inserted at its priority position.
        let cand = QueueKey {
            id: p.id,
            priority: p.priority,
            arrival_ns: p.arrival_ns,
            estimate_ns: p.estimate_ns,
        };
        let projected =
            projected_start_from_keys(&self.lanes, self.queue.keys_in_pop_order(), cand, now);
        if projected + p.estimate_ns > p.deadline_ns {
            self.registry.counters.shed_infeasible += 1;
            shed_marker(tel, &p, "deadline-infeasible", track);
            out.push(Self::wrap(
                p.rerouted_from,
                self.id,
                rejection(&p, Rejected::DeadlineInfeasible),
            ));
            return;
        }
        let probe = self.state == ShardState::Probation;
        // The projected deadline headroom is the slack budget batch-aware
        // ordering may later spend delaying this request.
        let mut p = p;
        p.slack_ns = (p.deadline_ns - projected - p.estimate_ns).max(0.0);
        let depth = self.queue.submit(p).expect("capacity checked above");
        self.registry.note_queue_depth(depth);
        if probe {
            self.probe_inflight = true;
        }
    }

    /// The only dispatch loop: dispatches queued work while something can
    /// start at or before `until_ns`, evaluating the lifecycle after every
    /// execution: Up drains past the breaker threshold; a probe's result
    /// decides re-admission; a Draining shard whose queue empties starts
    /// cooling.
    ///
    /// With `hedges` present (fleet-level hedging enabled), executions that
    /// look risky at dispatch or fail mid-flight are held back as
    /// [`HedgeCandidate`]s instead of being pushed to `out`; the fleet
    /// resolves them — exactly one response per request either way.
    fn advance_to(
        &mut self,
        until_ns: f64,
        cfg: &ShardConfig,
        mut tel: Option<&mut Telemetry>,
        out: &mut Vec<Response>,
        mut hedges: Option<&mut Vec<HedgeCandidate>>,
    ) -> Result<(), RunError> {
        while let Some((lane, start, p, reordered)) = self.select_dispatch(until_ns) {
            let rerouted_from = p.rerouted_from;
            let was_probe = self.probe_inflight && self.state == ShardState::Probation;
            // Risk is projected at dispatch, before execution: a primary
            // with little deadline margin races its hedge from the start.
            let hedge_probe = hedges.as_ref().map(|_| {
                let margin = p.deadline_ns - (start + p.estimate_ns);
                (margin < HEDGE_SLACK_FRACTION * p.estimate_ns, p.clone())
            });
            // A batch is a maximal run of consecutive same-tenant
            // dispatches on THIS shard's serial lane — it never crosses a
            // shard, because each shard owns its own tracker.
            let (saved, credit_ns) = match self.batch.as_mut() {
                Some(b) => b.note(p.tenant, p.seq.evk_read_bytes(), tel.as_deref_mut()),
                None => (0, 0.0),
            };
            let (mut resp, finish) = self.execute(p, start, credit_ns, tel.as_deref_mut())?;
            self.lanes[lane] = finish;
            if saved > 0 {
                resp.outcome = Outcome::Batched {
                    evk_bytes_saved: saved,
                    reordered,
                    outcome: Box::new(resp.outcome),
                };
            }
            match hedge_probe {
                Some((risky, prepared)) => {
                    let failed = matches!(
                        resp.outcome,
                        Outcome::Cancelled { .. } | Outcome::IntegrityFailure { .. }
                    );
                    if risky || failed {
                        hedges
                            .as_deref_mut()
                            .expect("hedge_probe implies hedges")
                            .push(HedgeCandidate {
                                prepared,
                                primary_shard: self.id,
                                primary_resp: resp,
                                primary_start_ns: start,
                                primary_finish_ns: finish,
                                trigger_ns: if risky { start } else { finish },
                            });
                    } else {
                        out.push(Self::wrap(rerouted_from, self.id, resp));
                    }
                }
                None => out.push(Self::wrap(rerouted_from, self.id, resp)),
            }
            self.drain_if_sick(finish, cfg, tel.as_deref_mut());
            if was_probe {
                self.probe_inflight = false;
                if self.registry.open_fraction() < cfg.unhealthy_open_fraction {
                    self.counters.readmits += 1;
                    self.next_cooldown_ns = cfg.drain_cooldown_ns;
                    self.transition(ShardState::Up, finish, "probe-ok", tel.as_deref_mut());
                } else {
                    self.counters.probe_failures += 1;
                    self.readmit_at_ns = finish + self.next_cooldown_ns;
                    self.next_cooldown_ns =
                        (self.next_cooldown_ns * COOLDOWN_MULTIPLIER).min(MAX_COOLDOWN_NS);
                    self.transition(
                        ShardState::Cooling,
                        finish,
                        "probe-fail",
                        tel.as_deref_mut(),
                    );
                }
            }
        }
        if self.state == ShardState::Draining && self.queue.is_empty() {
            // In-flight work executes synchronously at dispatch, so an
            // empty queue means the drain is complete; the drain ends when
            // the busiest lane goes idle.
            let drained_at = self.lanes.iter().copied().fold(0.0, f64::max);
            self.readmit_at_ns = drained_at + self.next_cooldown_ns;
            self.transition(ShardState::Cooling, drained_at, "drained", tel);
        }
        Ok(())
    }

    /// The next dispatch that can start at or before `until_ns`: the batch
    /// tracker's pick (which may pull a same-tenant request forward), or
    /// the queue head.
    fn select_dispatch(&mut self, until_ns: f64) -> Option<(usize, f64, Prepared, bool)> {
        if let Some(b) = self.batch.as_mut() {
            return b.select_dispatch(&mut self.queue, &self.lanes, until_ns);
        }
        let (lane, start) = next_dispatch(&self.queue, &self.lanes, until_ns)?;
        let p = self.queue.pop().expect("peek saw an item");
        Some((lane, start, p, false))
    }

    /// Runs one request through the breaker-gated scheduler at virtual
    /// time `start`, recording its segment span on this shard's track.
    /// `credit_ns` is the evk-fetch time the dispatch amortized away (0.0
    /// except for batch joiners under [`ServingConfig::ordering`]); it
    /// shortens the request's virtual occupancy, never below zero.
    fn execute(
        &mut self,
        p: Prepared,
        start: f64,
        credit_ns: f64,
        mut tel: Option<&mut Telemetry>,
    ) -> Result<(Response, f64), RunError> {
        let track = shard_track(self.id);
        let registry = &mut self.registry;
        registry.set_base_ns(start);
        let span = tel.as_deref_mut().map(|t| {
            // Trace and registry share the same base so kernel spans and
            // breaker markers land inside this request's window.
            t.set_base_ns(start);
            t.open_segment(format!("req{} {}", p.id, p.label), track, 0.0)
        });
        // The run starts at local virtual time 0, so the remaining deadline
        // headroom is the budget the scheduler may spend.
        let budget_ns = self
            .cancel_over_budget
            .then_some((p.deadline_ns - start).max(0.0));
        let report = self.rt.run_prepared_with(
            &p.seq,
            RunOptions {
                health: Some(&mut *registry),
                telemetry: tel.as_deref_mut(),
                budget_ns,
                fault: p.fault,
            },
        )?;
        // The amortized evk fetch shortens the virtual occupancy; the
        // realized credit is capped at the run's own duration. With
        // `credit_ns == 0.0` (ordering off, or not a joiner) this is
        // bit-identical to the uncredited path.
        let credit = credit_ns.max(0.0).min(report.total_ns);
        if let Some(b) = self.batch.as_mut() {
            b.evk_saved_ns += credit;
        }
        let total_ns = report.total_ns - credit;
        let finish = start + total_ns;
        let outcome = if report.cancelled {
            registry.counters.cancelled_over_budget += 1;
            Outcome::Cancelled {
                start_ns: start,
                consumed_ns: report.total_ns,
                segments_done: report.segments.len() as u32,
            }
        } else if report.integrity_failed {
            registry.counters.integrity_failures += 1;
            Outcome::IntegrityFailure {
                start_ns: start,
                finish_ns: finish,
            }
        } else if finish <= p.deadline_ns {
            registry.counters.completed += 1;
            Outcome::Completed {
                start_ns: start,
                finish_ns: finish,
                deadline_ns: p.deadline_ns,
                // Clamped: slack is headroom, never negative (an overrun
                // is a DeadlineMiss, counted separately).
                deadline_slack_ns: (p.deadline_ns - finish).max(0.0),
                faults: report.faults_detected,
                pim_fallbacks: report.pim_fallbacks,
                breaker_skips: report.breaker_skips,
            }
        } else {
            registry.counters.deadline_misses += 1;
            Outcome::DeadlineMiss {
                start_ns: start,
                finish_ns: finish,
                deadline_ns: p.deadline_ns,
            }
        };
        if let (Some(t), Some(id)) = (tel, span) {
            let completed = matches!(outcome, Outcome::Completed { .. });
            let label = match outcome {
                Outcome::Completed { .. } => "completed",
                Outcome::Cancelled { .. } => "cancelled",
                Outcome::IntegrityFailure { .. } => "integrity-failure",
                _ => "deadline-miss",
            };
            t.close_segment(
                id,
                total_ns,
                vec![
                    ("deadline_ns", p.deadline_ns.into()),
                    ("outcome", label.into()),
                ],
            );
            t.metrics.observe(names::REQUEST_LATENCY_NS, &[], total_ns);
            if completed {
                // Clamped like the outcome field: a completion's slack is
                // non-negative by construction, but the histogram must
                // never see a negative value even if the branch
                // conditions drift.
                t.metrics.observe(
                    names::DEADLINE_SLACK_NS,
                    &[],
                    (p.deadline_ns - finish).max(0.0),
                );
            } else if matches!(outcome, Outcome::DeadlineMiss { .. }) {
                // A late completion has zero slack, not negative slack:
                // record the overrun in its own counter so the slack
                // quantiles ordering decisions rely on stay non-negative.
                t.metrics.observe(names::DEADLINE_SLACK_NS, &[], 0.0);
                t.metrics.inc(names::DEADLINE_OVERRUNS, &[], 1);
            }
        }
        Ok((
            Response {
                id: p.id,
                tenant: p.tenant,
                priority: p.priority,
                label: p.label,
                outcome,
            },
            finish,
        ))
    }

    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            shard: self.id,
            state: self.state,
            counters: self.counters,
            health: self.registry.snapshot(),
            transitions: self.transitions.clone(),
            breaker_log: self.registry.transitions().to_vec(),
            last_finish_ns: self.lanes.iter().copied().fold(0.0, f64::max),
            evk: self
                .batch
                .as_ref()
                .map_or_else(BatchStats::default, |b| b.stats),
            evk_saved_ns: self.batch.as_ref().map_or(0.0, |b| b.evk_saved_ns),
        }
    }
}

/// N replica shards behind a rendezvous router, with drain/probe failover
/// and (opt-in) hedged re-execution.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    router: ShardRouter,
    cfg: ShardConfig,
    fleet: FleetCounters,
    /// Per-tenant hedge token buckets: `(tokens, last_refill_ns)` in
    /// virtual time. A `BTreeMap` so iteration/debug order is stable.
    hedge_tokens: std::collections::BTreeMap<u32, (f64, f64)>,
    /// Every request template prepared so far (all shards share one
    /// platform, so one preparation serves them all).
    templates: PreparedTemplates,
}

/// Reborrows the telemetry inside an optional [`StreamObs`].
fn tel_of<'x>(obs: &'x mut Option<&mut StreamObs<'_>>) -> Option<&'x mut Telemetry> {
    obs.as_mut().map(|o| &mut *o.tel)
}

impl ShardedEngine {
    /// `shard_cfg.shards` replicas, each built from `serving` (same
    /// platform, its own runtime, registry and lanes).
    pub fn new(serving: ServingConfig, shard_cfg: ShardConfig) -> Self {
        let shards = (0..shard_cfg.shards.max(1))
            .map(|id| Shard::new(id, &serving, &shard_cfg))
            .collect();
        Self {
            shards,
            router: ShardRouter::new(shard_cfg.router_seed, shard_cfg.shards.max(1)),
            cfg: shard_cfg,
            fleet: FleetCounters::default(),
            hedge_tokens: std::collections::BTreeMap::new(),
            templates: PreparedTemplates::default(),
        }
    }

    /// The tenant router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Fleet-level routing counters.
    pub fn fleet(&self) -> FleetCounters {
        self.fleet
    }

    /// Serves a stream of requests in bounded memory, invoking
    /// `on_response` for every response as it is produced (execution
    /// order — deterministic, but not sorted by id; a million-request run
    /// cannot buffer and sort). Requests must arrive in nondecreasing
    /// `(arrival_ns, id)` order, which every seeded trace generator
    /// guarantees.
    ///
    /// Each distinct template (`Arc` identity) is prepared once, at its
    /// first request, so memory grows with the number of distinct
    /// templates, not with the trace; a template that fails to prepare
    /// returns the error at that request. With `obs`, completed spans
    /// drain into the bounded sink after every request and the final
    /// fleet state is exported to the metrics registry.
    pub fn run_stream<I, F>(
        &mut self,
        requests: I,
        mut on_response: F,
        mut obs: Option<&mut StreamObs<'_>>,
    ) -> Result<(), RunError>
    where
        I: IntoIterator<Item = Request>,
        F: FnMut(&Response),
    {
        let mut last_key = (f64::NEG_INFINITY, 0u64);
        let mut out: Vec<Response> = Vec::new();
        let mut hedges: Vec<HedgeCandidate> = Vec::new();
        for req in requests {
            let p = self.templates.prepare(&self.shards[0].rt, req)?;
            assert!(
                (p.arrival_ns, p.id) >= last_key,
                "run_stream requires nondecreasing (arrival, id) order \
                 (request {} at {} after {:?})",
                p.id,
                p.arrival_ns,
                last_key
            );
            last_key = (p.arrival_ns, p.id);
            self.step(p, &mut out, &mut hedges, obs.as_deref_mut())?;
            for r in out.drain(..) {
                on_response(&r);
            }
            if let Some(o) = obs.as_deref_mut() {
                o.after_request();
            }
        }
        let hedging = self.cfg.hedging;
        for shard in &mut self.shards {
            let h = if hedging { Some(&mut hedges) } else { None };
            shard.advance_to(f64::INFINITY, &self.cfg, tel_of(&mut obs), &mut out, h)?;
            // End of stream: the shard's open same-tenant batch closes so
            // its size lands in the histogram and the stats.
            if let Some(b) = shard.batch.as_mut() {
                b.close(tel_of(&mut obs));
            }
        }
        self.resolve_hedges(&mut hedges, &mut out, &mut obs)?;
        for r in out.drain(..) {
            on_response(&r);
        }
        if let Some(o) = obs {
            self.export_fleet(o.tel);
            o.after_request();
        }
        Ok(())
    }

    /// One serial step: advance every shard to the arrival, poll who is
    /// accepting, route, admit (or reject fleet-wide), and resolve any
    /// hedge candidates the advance produced.
    fn step(
        &mut self,
        mut p: Prepared,
        out: &mut Vec<Response>,
        hedges: &mut Vec<HedgeCandidate>,
        mut obs: Option<&mut StreamObs<'_>>,
    ) -> Result<(), RunError> {
        self.fleet.submitted += 1;
        let now = p.arrival_ns;
        let hedging = self.cfg.hedging;
        for shard in &mut self.shards {
            let h = if hedging { Some(&mut *hedges) } else { None };
            shard.advance_to(now, &self.cfg, tel_of(&mut obs), out, h)?;
        }
        self.resolve_hedges(hedges, out, &mut obs)?;
        let mut accepting = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            accepting.push(shard.poll_accepting(now, tel_of(&mut obs)));
        }
        let home = self.router.home_shard(p.tenant);
        match self.router.route(p.tenant, &accepting) {
            None => {
                self.fleet.rejected_all_unhealthy += 1;
                shed_marker(tel_of(&mut obs), &p, "all-shards-unhealthy", "serving");
                out.push(rejection(&p, Rejected::AllShardsUnhealthy));
            }
            Some(sid) => {
                if sid != home {
                    self.fleet.rerouted += 1;
                    self.shards[sid as usize].counters.rerouted_in += 1;
                    p.rerouted_from = Some(home);
                }
                self.shards[sid as usize].admit(p, now, tel_of(&mut obs), out);
            }
        }
        Ok(())
    }

    /// Takes one hedge token from `tenant`'s bucket at virtual time `now`,
    /// refilling first. Deterministic: depends only on (config, tenant,
    /// the sequence of trigger times).
    fn take_hedge_token(&mut self, tenant: u32, now: f64) -> bool {
        let entry = self
            .hedge_tokens
            .entry(tenant)
            .or_insert((self.cfg.hedge_burst, now));
        let refilled = (entry.0 + (now - entry.1).max(0.0) * self.cfg.hedge_refill_per_s * 1e-9)
            .min(self.cfg.hedge_burst);
        *entry = (refilled, now);
        if refilled >= 1.0 {
            entry.0 = refilled - 1.0;
            true
        } else {
            false
        }
    }

    /// Resolves held-back hedge candidates, in collection order (shard
    /// order, then execution order — deterministic). Each either launches
    /// a hedge on the rendezvous-next accepting sibling (token permitting)
    /// and emits the better execution wrapped in [`Outcome::Hedged`], or
    /// is suppressed and emits the primary outcome unchanged. Exactly one
    /// response per candidate either way.
    fn resolve_hedges(
        &mut self,
        cands: &mut Vec<HedgeCandidate>,
        out: &mut Vec<Response>,
        obs: &mut Option<&mut StreamObs<'_>>,
    ) -> Result<(), RunError> {
        let cfg = self.cfg;
        for c in cands.drain(..) {
            let now = c.trigger_ns;
            // Hedge only onto fully-Up siblings: Probation is reserved for
            // the shard's own probe, Draining/Cooling take no new work.
            let accepting: Vec<bool> = self
                .shards
                .iter()
                .map(|s| s.state == ShardState::Up)
                .collect();
            let sibling = self
                .router
                .next_shard(c.prepared.tenant, c.primary_shard, &accepting);
            let sib = match sibling {
                Some(s) if self.take_hedge_token(c.prepared.tenant, now) => s,
                _ => {
                    self.fleet.hedges_suppressed += 1;
                    out.push(Shard::wrap(
                        c.prepared.rerouted_from,
                        c.primary_shard,
                        c.primary_resp,
                    ));
                    continue;
                }
            };
            self.fleet.hedges_launched += 1;
            let rerouted_from = c.prepared.rerouted_from;
            let mut hp = c.prepared;
            hp.fault = hp.fault.map(|f| f.derive_stream(hp.id ^ HEDGE_SALT));
            let (hresp, hstart, hfinish) = {
                let shard = &mut self.shards[sib as usize];
                // The hedge is an extra execution, not an extra fleet
                // submission: count it into the sibling's registry so the
                // per-shard outcome/submission conservation keeps holding.
                shard.registry.counters.submitted += 1;
                let lane = earliest_lane(&shard.lanes);
                let start = shard.lanes[lane].max(now);
                // Hedges bypass dispatch and are never batch-accounted,
                // so they carry no evk lane credit.
                let (hresp, hfinish) = shard.execute(hp, start, 0.0, tel_of(obs))?;
                shard.lanes[lane] = hfinish;
                // A hedge that trips the sibling past the breaker
                // threshold drains it, same as a queued dispatch would.
                shard.drain_if_sick(hfinish, &cfg, tel_of(obs));
                (hresp, start, hfinish)
            };
            let hedge_wins = {
                let pr = outcome_rank(&c.primary_resp.outcome);
                let hr = outcome_rank(&hresp.outcome);
                hr < pr || (hr == pr && hfinish < c.primary_finish_ns)
            };
            let resp = if hedge_wins {
                self.fleet.hedges_won += 1;
                hedged(sib, c.primary_finish_ns - c.primary_start_ns, hresp)
            } else {
                self.fleet.hedges_wasted += 1;
                hedged(c.primary_shard, hfinish - hstart, c.primary_resp)
            };
            out.push(Shard::wrap(rerouted_from, c.primary_shard, resp));
        }
        Ok(())
    }

    /// Comparable snapshots of every shard, in shard order.
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards.iter().map(Shard::snapshot).collect()
    }

    /// Renders the fleet state as deterministic text — the artifact the
    /// thread-count determinism gate byte-compares. Covers the fleet
    /// counters and, per shard: state, lifecycle counters, health
    /// counters, bank statuses, and the full shard transition log.
    pub fn render_snapshots(&self) -> String {
        let mut s = String::new();
        let f = &self.fleet;
        let _ = writeln!(
            s,
            "fleet: submitted={} rerouted={} all-shards-unhealthy={} \
             hedges-launched={} hedges-won={} hedges-wasted={} hedges-suppressed={}",
            f.submitted,
            f.rerouted,
            f.rejected_all_unhealthy,
            f.hedges_launched,
            f.hedges_won,
            f.hedges_wasted,
            f.hedges_suppressed
        );
        for shard in &self.shards {
            let snap = shard.snapshot();
            let c = snap.counters;
            let _ = writeln!(
                s,
                "shard {}: state={} rerouted-in={} drains={} readmits={} \
                 probe-failures={} last-finish-ns={}",
                snap.shard,
                snap.state,
                c.rerouted_in,
                c.drains,
                c.readmits,
                c.probe_failures,
                snap.last_finish_ns
            );
            let h = &snap.health.counters;
            let _ = writeln!(
                s,
                "  health: submitted={} completed={} deadline-misses={} \
                 cancelled={} integrity-failures={} \
                 shed-queue-full={} shed-infeasible={} faults={} retries={} \
                 fallbacks={} breaker-skips={} probes={} probe-failures={} \
                 max-queue-depth={}",
                h.submitted,
                h.completed,
                h.deadline_misses,
                h.cancelled_over_budget,
                h.integrity_failures,
                h.shed_queue_full,
                h.shed_infeasible,
                h.faults_detected,
                h.pim_retries,
                h.gpu_fallbacks,
                h.breaker_skips,
                h.probes,
                h.probe_failures,
                h.max_queue_depth
            );
            let _ = write!(s, "  banks:");
            for b in &snap.health.banks {
                let _ = write!(
                    s,
                    " {}={}{}(trips {})",
                    b.bank,
                    b.state,
                    if b.permanent { "!" } else { "" },
                    b.trips
                );
            }
            let _ = writeln!(s);
            // Gated on the batch tracker so a non-batching fleet's text is
            // byte-identical to one rendered before the evk line existed,
            // and on ordering the same way: a plain batching fleet's text
            // is byte-identical to the pre-ordering render.
            if let Some(b) = &shard.batch {
                let e = b.stats;
                let _ = writeln!(
                    s,
                    "  evk: hit-bytes={} miss-bytes={} saved-bytes={} \
                     batches={} max-batch={}",
                    e.hit_bytes,
                    e.miss_bytes,
                    e.saved_bytes(),
                    e.batches,
                    e.max_batch
                );
                if b.ordering.is_some() {
                    let _ = writeln!(
                        s,
                        "  ordering: reorders={} denied-slack={} saved-ns={:.0}",
                        e.reorders, e.reorder_denied_slack, b.evk_saved_ns
                    );
                }
            }
            let _ = writeln!(s, "  breaker-transitions: {}", snap.health.transitions);
            for (i, t) in snap.transitions.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "  [{i}] {}\u{2192}{} at {} cause={}",
                    t.from, t.to, t.at_ns, t.cause
                );
            }
        }
        s
    }

    /// Exports the fleet state into the metrics registry, idempotently:
    /// per-shard state/lifecycle counters, per-(shard, bank) breaker
    /// state, per-shard serving events, and the fleet routing counters.
    pub fn export_fleet(&self, tel: &mut Telemetry) {
        for shard in &self.shards {
            let sid = shard.id.to_string();
            tel.metrics.set_gauge(
                names::SHARD_STATE,
                &[("shard", &sid)],
                f64::from(shard.state.code()),
            );
            let c = shard.counters;
            for (event, v) in [
                ("rerouted-in", c.rerouted_in),
                ("drains", c.drains),
                ("readmits", c.readmits),
                ("probe-failures", c.probe_failures),
            ] {
                tel.metrics.set_counter(
                    names::SHARD_EVENTS,
                    &[("shard", &sid), ("event", event)],
                    v,
                );
            }
            let snap = shard.registry.snapshot();
            for b in &snap.banks {
                let bank = b.bank.to_string();
                let state = match b.state {
                    BreakerState::Closed => 0.0,
                    BreakerState::HalfOpen => 1.0,
                    BreakerState::Open => 2.0,
                };
                tel.metrics.set_gauge(
                    names::BANK_STATE,
                    &[("bank", &bank), ("shard", &sid)],
                    state,
                );
                tel.metrics.set_counter(
                    names::BANK_TRIPS,
                    &[("bank", &bank), ("shard", &sid)],
                    u64::from(b.trips),
                );
            }
            let h = &snap.counters;
            for (event, v) in [
                ("submitted", h.submitted),
                ("completed", h.completed),
                ("deadline-miss", h.deadline_misses),
                ("shed-queue-full", h.shed_queue_full),
                ("shed-infeasible", h.shed_infeasible),
            ] {
                tel.metrics.set_counter(
                    names::SERVING_EVENTS,
                    &[("event", event), ("shard", &sid)],
                    v,
                );
            }
            // Guarded like the registry-level exports: a clean fleet's
            // exposition stays exactly as it was before these existed.
            for (event, v) in [
                ("cancelled-over-budget", h.cancelled_over_budget),
                ("integrity-failure", h.integrity_failures),
            ] {
                if v > 0 {
                    tel.metrics.set_counter(
                        names::SERVING_EVENTS,
                        &[("event", event), ("shard", &sid)],
                        v,
                    );
                }
            }
            // Batch evk bytes, per shard; zero-guarded inside.
            if let Some(b) = &shard.batch {
                b.export_evk(tel, shard.id);
            }
        }
        for (event, v) in [
            ("rerouted", self.fleet.rerouted),
            ("all-shards-unhealthy", self.fleet.rejected_all_unhealthy),
        ] {
            tel.metrics
                .set_counter(names::SERVING_EVENTS, &[("event", event)], v);
        }
        if self.cfg.hedging {
            for (result, v) in [
                ("launched", self.fleet.hedges_launched),
                ("won", self.fleet.hedges_won),
                ("wasted", self.fleet.hedges_wasted),
                ("suppressed", self.fleet.hedges_suppressed),
            ] {
                tel.metrics
                    .set_counter(names::HEDGES, &[("result", result)], v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use anaheim_core::build::{Builder, LinTransStyle};
    use anaheim_core::ir::OpSequence;
    use anaheim_core::params::ParamSet;
    use pim::fault::FaultPlan;

    use crate::request::Priority;

    fn small_tpl() -> Arc<OpSequence> {
        let mut b = Builder::new(ParamSet::paper_default());
        Arc::new(b.hadd(24))
    }

    fn wide_tpl() -> Arc<OpSequence> {
        let mut b = Builder::new(ParamSet::paper_default());
        Arc::new(b.lintrans(24, 4, LinTransStyle::Hoisting, true))
    }

    fn req(id: u64, tenant: u32, arrival: f64, seq: &Arc<OpSequence>) -> Request {
        Request {
            id,
            tenant,
            priority: Priority::Standard,
            arrival_ns: arrival,
            deadline_ns: 1e15,
            seq: Arc::clone(seq),
            fault: None,
            label: "shard-test",
        }
    }

    fn fleet(shards: u32, shard_cfg: ShardConfig) -> ShardedEngine {
        ShardedEngine::new(
            ServingConfig {
                workers: 2,
                queue_capacity: 4,
                ..ServingConfig::a100_default(7)
            },
            ShardConfig {
                shards,
                ..shard_cfg
            },
        )
    }

    fn collect(engine: &mut ShardedEngine, reqs: Vec<Request>) -> Vec<Response> {
        let mut got = Vec::new();
        engine
            .run_stream(reqs, |r| got.push(r.clone()), None)
            .unwrap();
        got
    }

    #[test]
    fn deadline_overrun_counts_separately_and_slack_stays_non_negative() {
        let mut shard = Shard::new(
            0,
            &ServingConfig {
                workers: 2,
                queue_capacity: 2,
                ..ServingConfig::a100_default(7)
            },
            &ShardConfig::new(1),
        );
        let mut tel = Telemetry::new(7);
        // Bypass admission (which would shed the infeasible deadline) and
        // execute directly: the miss must record 0.0 slack — never a
        // negative value — plus one overrun tick in its own counter.
        let late = Request {
            deadline_ns: 1.0,
            ..req(0, 0, 0.0, &wide_tpl())
        };
        let late = PreparedTemplates::default()
            .prepare(&shard.rt, late)
            .unwrap();
        let (resp, _) = shard.execute(late, 0.0, 0.0, Some(&mut tel)).unwrap();
        assert!(matches!(resp.outcome, Outcome::DeadlineMiss { .. }));
        let slack = tel
            .metrics
            .histogram(names::DEADLINE_SLACK_NS, &[])
            .unwrap();
        assert_eq!(slack.count(), 1);
        assert_eq!(
            slack.sum().to_bits(),
            0.0f64.to_bits(),
            "a miss is zero slack, not negative"
        );
        assert_eq!(tel.metrics.counter_value(names::DEADLINE_OVERRUNS, &[]), 1);
        // An on-time completion reports non-negative slack and leaves the
        // overrun counter alone.
        let ok = Request {
            deadline_ns: 1e12,
            ..req(1, 1, 0.0, &wide_tpl())
        };
        let ok = PreparedTemplates::default().prepare(&shard.rt, ok).unwrap();
        let (resp, _) = shard.execute(ok, 0.0, 0.0, Some(&mut tel)).unwrap();
        match resp.outcome {
            Outcome::Completed {
                deadline_slack_ns, ..
            } => assert!(deadline_slack_ns >= 0.0),
            ref o => panic!("expected completion, got {o:?}"),
        }
        let slack = tel
            .metrics
            .histogram(names::DEADLINE_SLACK_NS, &[])
            .unwrap();
        assert_eq!(slack.count(), 2);
        assert!(slack.sum() > 0.0);
        assert_eq!(tel.metrics.counter_value(names::DEADLINE_OVERRUNS, &[]), 1);
    }

    /// A tenant whose home is `shard` under the engine's router.
    fn tenant_on(engine: &ShardedEngine, shard: u32) -> u32 {
        (0..1024)
            .find(|&t| engine.router().home_shard(t) == shard)
            .expect("rendezvous covers every shard within 1024 tenants")
    }

    #[test]
    fn each_template_prepares_once_per_fleet() {
        let mut e = fleet(1, ShardConfig::new(1));
        let (a, b) = (small_tpl(), wide_tpl());
        let reqs: Vec<Request> = (0..1500)
            .map(|i| req(i, 0, i as f64 * 1e6, if i % 2 == 0 { &a } else { &b }))
            .collect();
        assert_eq!(collect(&mut e, reqs).len(), 1500);
        assert_eq!(e.templates.len(), 2, "two template Arcs, two preparations");
        // A memo hit shares the remembered sequence; its estimate is
        // bit-identical to preparing a private clone of the template.
        let rt = &e.shards[0].rt;
        let hit = e.templates.prepare(rt, req(1500, 0, 0.0, &a)).unwrap();
        let lone = PreparedTemplates::default()
            .prepare(rt, req(1500, 0, 0.0, &Arc::new((*a).clone())))
            .unwrap();
        assert_eq!(e.templates.len(), 2);
        assert_eq!(hit.estimate_ns.to_bits(), lone.estimate_ns.to_bits());
        assert!(!Arc::ptr_eq(&hit.seq, &lone.seq));
    }

    #[test]
    fn clean_fleet_serves_everyone_at_home() {
        let mut e = fleet(2, ShardConfig::new(2));
        let tpl = small_tpl();
        let reqs: Vec<Request> = (0..8)
            .map(|i| req(i, i as u32, i as f64 * 1e6, &tpl))
            .collect();
        let got = collect(&mut e, reqs);
        assert_eq!(got.len(), 8);
        assert!(got.iter().all(|r| r.outcome.is_completed()));
        assert!(got
            .iter()
            .all(|r| !matches!(r.outcome, Outcome::Rerouted { .. })));
        let f = e.fleet();
        assert_eq!(
            (f.submitted, f.rerouted, f.rejected_all_unhealthy),
            (8, 0, 0)
        );
        // Conservation: per-shard submissions sum to the fleet total.
        let per_shard: u64 = e
            .snapshots()
            .iter()
            .map(|s| s.health.counters.submitted)
            .sum();
        assert_eq!(per_shard, 8);
        assert!(e.snapshots().iter().all(|s| s.state == ShardState::Up));
    }

    #[test]
    fn stuck_shard_drains_and_reroutes_its_tenants() {
        let cfg = ShardConfig {
            // One permanently-open domain out of 8 crosses the threshold,
            // and the cooldown is long enough that no probe happens.
            unhealthy_open_fraction: 0.1,
            drain_cooldown_ns: 1e15,
            ..ShardConfig::new(2)
        };
        let mut e = fleet(2, cfg);
        let t0 = tenant_on(&e, 0);
        let t1 = tenant_on(&e, 1);
        let tpl = small_tpl();
        // The stuck lane is a hard MMAC fault, so the faulted request must
        // be one with PIM-offloaded kernels (lintrans, not hadd).
        let mut r0 = req(0, t0, 0.0, &wide_tpl());
        r0.fault = Some(FaultPlan::none().with_seed(5).with_stuck_lane(3));
        let reqs = vec![r0, req(1, t0, 1e9, &tpl), req(2, t1, 2e9, &tpl)];
        let got = collect(&mut e, reqs);
        assert_eq!(got.len(), 3);
        // The stuck request itself completes (GPU fallback absorbs it).
        assert!(got.iter().all(|r| r.outcome.is_completed()));
        let rerouted = got
            .iter()
            .find(|r| matches!(r.outcome, Outcome::Rerouted { .. }))
            .expect("home shard 0 was draining, its tenant must fail over");
        assert_eq!(rerouted.id, 1);
        match &rerouted.outcome {
            Outcome::Rerouted {
                from_shard,
                to_shard,
                outcome,
            } => {
                assert_eq!((*from_shard, *to_shard), (0, 1));
                assert!(matches!(**outcome, Outcome::Completed { .. }));
            }
            o => panic!("unexpected outcome {o:?}"),
        }
        let snaps = e.snapshots();
        assert_eq!(snaps[0].state, ShardState::Cooling, "drained, now cooling");
        assert_eq!(snaps[0].counters.drains, 1);
        assert_eq!(snaps[1].counters.rerouted_in, 1);
        assert_eq!(e.fleet().rerouted, 1);
        let causes: Vec<&str> = snaps[0].transitions.iter().map(|t| t.cause).collect();
        assert_eq!(causes, vec!["breaker-threshold", "drained"]);
        // Tenant 1's request never left home.
        assert!(got
            .iter()
            .filter(|r| r.id == 2)
            .all(|r| !matches!(r.outcome, Outcome::Rerouted { .. })));
    }

    #[test]
    fn single_shard_fleet_rejects_when_unhealthy() {
        let cfg = ShardConfig {
            unhealthy_open_fraction: 0.1,
            drain_cooldown_ns: 1e15,
            ..ShardConfig::new(1)
        };
        let mut e = fleet(1, cfg);
        let tpl = small_tpl();
        let mut r0 = req(0, 3, 0.0, &wide_tpl());
        r0.fault = Some(FaultPlan::none().with_seed(5).with_stuck_lane(3));
        let reqs = vec![r0, req(1, 3, 1e9, &tpl), req(2, 4, 2e9, &tpl)];
        let got = collect(&mut e, reqs);
        let rejected = got
            .iter()
            .filter(|r| r.outcome == Outcome::Rejected(Rejected::AllShardsUnhealthy))
            .count();
        assert_eq!(rejected, 2, "everything after the drain is rejected");
        assert_eq!(e.fleet().rejected_all_unhealthy, 2);
        // Conservation holds with fleet-level rejections included.
        let per_shard: u64 = e
            .snapshots()
            .iter()
            .map(|s| s.health.counters.submitted)
            .sum();
        assert_eq!(
            per_shard + e.fleet().rejected_all_unhealthy,
            e.fleet().submitted
        );
    }

    #[test]
    fn transient_storm_drains_then_probe_readmits() {
        let cfg = ShardConfig {
            unhealthy_open_fraction: 0.1,
            drain_cooldown_ns: 2e5,
            ..ShardConfig::new(1)
        };
        let mut e = fleet(1, cfg);
        let storm_tpl = wide_tpl();
        let tpl = small_tpl();
        // A storm request whose every PIM kernel fails transiently: enough
        // consecutive failures per domain to trip breakers past the
        // threshold, but nothing permanent.
        let mut storm = req(0, 9, 0.0, &storm_tpl);
        storm.fault = Some(FaultPlan::none().with_seed(11).with_bank_flips(1.0));
        // The probe (id 1) must itself touch every die group to close the
        // transiently-opened breakers, so it is a wide lintrans too.
        let reqs = vec![storm, req(1, 9, 1e9, &storm_tpl), req(2, 9, 2e9, &tpl)];
        let got = collect(&mut e, reqs);
        assert_eq!(got.len(), 3);
        let snap = &e.snapshots()[0];
        assert_eq!(snap.counters.drains, 1, "storm must drain the shard");
        assert_eq!(snap.counters.readmits, 1, "clean probe must readmit it");
        assert_eq!(snap.state, ShardState::Up);
        let causes: Vec<&str> = snap.transitions.iter().map(|t| t.cause).collect();
        assert_eq!(
            causes,
            vec!["breaker-threshold", "drained", "cooldown", "probe-ok"]
        );
        // The probe request (id 1) completed on its home shard, unwrapped.
        assert!(got.iter().all(|r| r.outcome.is_completed()));
        assert_eq!(e.fleet().rejected_all_unhealthy, 0);
    }

    /// A hedging fleet and a deterministic trace whose requests carry GPU
    /// transfer flips: at `flip_prob = 1.0` every primary fails its
    /// end-to-end integrity verdict, which is the deterministic
    /// (estimate-independent) hedge trigger; at small probabilities the
    /// primary and its hedge draw independent streams and can diverge.
    fn hedge_fleet(seed: u64, burst: f64, flip_prob: f64) -> (ShardedEngine, Vec<Request>) {
        let cfg = ShardConfig {
            hedging: true,
            hedge_burst: burst,
            hedge_refill_per_s: 1e6,
            ..ShardConfig::new(2)
        };
        let e = fleet(2, cfg);
        let tpl = wide_tpl();
        let reqs: Vec<Request> = (0..6)
            .map(|i| {
                let mut r = req(i, i as u32, i as f64 * 1e7, &tpl);
                r.fault = Some(
                    FaultPlan::none()
                        .with_seed(seed)
                        .with_gpu_transfer_flips(flip_prob),
                );
                r
            })
            .collect();
        (e, reqs)
    }

    #[test]
    fn hedged_requests_get_exactly_one_outcome_and_replay_identically() {
        let run = |seed| {
            let (mut e, reqs) = hedge_fleet(seed, 4.0, 1.0);
            let got = collect(&mut e, reqs);
            let executions: u64 = e
                .snapshots()
                .iter()
                .map(|s| s.health.counters.submitted)
                .sum();
            (e.fleet(), got, e.render_snapshots(), executions)
        };
        let (f, got, snap, executions) = run(3);
        assert_eq!(got.len(), 6, "exactly one response per request");
        let mut ids: Vec<u64> = got.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        assert!(f.hedges_launched > 0, "tight deadlines must trigger hedges");
        assert_eq!(
            f.hedges_won + f.hedges_wasted,
            f.hedges_launched,
            "every launched hedge is scored exactly once"
        );
        assert_eq!(
            executions,
            f.submitted + f.hedges_launched,
            "each hedge is one extra execution on the sibling's registry"
        );
        let (f2, got2, snap2, _) = run(3);
        assert_eq!(f, f2);
        assert_eq!(got, got2, "hedging replays byte-identically");
        assert_eq!(snap, snap2);
        assert!(snap.contains("hedges-launched="));
    }

    #[test]
    fn a_hedge_can_beat_a_fault_slowed_primary() {
        // The primary and its hedge draw independent fault streams
        // (HEDGE_SALT), so at a small flip probability some seed corrupts
        // the primary while its hedge stays clean — a rank-0 Completed
        // beating a rank-3 IntegrityFailure. Search a few seeds and pin
        // the first winner's shape.
        for seed in 0..64 {
            let (mut e, reqs) = hedge_fleet(seed, 4.0, 0.02);
            let got = collect(&mut e, reqs);
            if e.fleet().hedges_won == 0 {
                continue;
            }
            let h = got
                .iter()
                .find_map(|r| match &r.outcome {
                    Outcome::Hedged {
                        winner,
                        loser_consumed_ns,
                        outcome,
                    } => Some((*winner, *loser_consumed_ns, outcome.clone())),
                    Outcome::Rerouted { outcome, .. } => match outcome.as_ref() {
                        Outcome::Hedged {
                            winner,
                            loser_consumed_ns,
                            outcome,
                        } => Some((*winner, *loser_consumed_ns, outcome.clone())),
                        _ => None,
                    },
                    _ => None,
                })
                .expect("hedges_won > 0 implies a Hedged response");
            let (_winner, loser_consumed, _inner) = h;
            assert!(
                loser_consumed > 0.0,
                "the losing execution consumed real virtual time"
            );
            return;
        }
        panic!("no seed in 0..64 produced a hedge win");
    }

    #[test]
    fn hedges_are_suppressed_without_tokens_or_siblings() {
        // Zero burst: triggers fire but the bucket never grants a token.
        let (mut e, reqs) = hedge_fleet(3, 0.0, 1.0);
        let got = collect(&mut e, reqs);
        let f = e.fleet();
        assert_eq!(f.hedges_launched, 0);
        assert!(f.hedges_suppressed > 0, "failing primaries were throttled");
        assert!(
            got.iter().all(|r| matches!(
                r.outcome.final_outcome(),
                Outcome::IntegrityFailure { .. }
            ) && !matches!(r.outcome, Outcome::Hedged { .. })),
            "suppressed hedges emit the primary outcome unchanged"
        );
        // Single-shard fleet: a trigger has nowhere to go.
        let cfg = ShardConfig {
            hedging: true,
            ..ShardConfig::new(1)
        };
        let mut e1 = fleet(1, cfg);
        let tpl = wide_tpl();
        let mut r = req(0, 5, 0.0, &tpl);
        r.fault = Some(FaultPlan::none().with_seed(1).with_gpu_transfer_flips(1.0));
        let got1 = collect(&mut e1, vec![r]);
        assert_eq!(got1.len(), 1);
        assert_eq!(e1.fleet().hedges_launched, 0);
        assert_eq!(e1.fleet().hedges_suppressed, 1);
    }

    #[test]
    fn hedging_disabled_emits_no_hedge_accounting() {
        let mut e = fleet(2, ShardConfig::new(2));
        let tpl = wide_tpl();
        let mut r = req(0, 1, 0.0, &tpl);
        // Would trigger the failure path if hedging were on.
        r.fault = Some(FaultPlan::none().with_seed(1).with_gpu_transfer_flips(1.0));
        let got = collect(&mut e, vec![r]);
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0].outcome, Outcome::IntegrityFailure { .. }));
        let f = e.fleet();
        assert_eq!(
            (
                f.hedges_launched,
                f.hedges_won,
                f.hedges_wasted,
                f.hedges_suppressed
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn batched_fleet_amortizes_per_shard_and_renders_evk_lines() {
        let mk = |batching| {
            ShardedEngine::new(
                ServingConfig {
                    workers: 2,
                    queue_capacity: 8,
                    batching,
                    ..ServingConfig::a100_default(7)
                },
                ShardConfig::new(2),
            )
        };
        let mut e = mk(true);
        // Two tenants, one homed on each shard, each submitting a run of
        // back-to-back requests: every shard sees one maximal batch.
        let t0 = tenant_on(&e, 0);
        let t1 = tenant_on(&e, 1);
        let tpl = wide_tpl();
        let mut reqs = Vec::new();
        for i in 0..4u64 {
            reqs.push(req(i, t0, i as f64 * 1e3, &tpl));
        }
        for i in 4..8u64 {
            reqs.push(req(i, t1, 1e4 + i as f64 * 1e3, &tpl));
        }
        let got = collect(&mut e, reqs.clone());
        assert_eq!(got.len(), 8);
        assert!(got.iter().all(|r| r.outcome.is_completed()));
        let saved: u64 = got
            .iter()
            .map(|r| match r.outcome {
                Outcome::Batched {
                    evk_bytes_saved, ..
                } => evk_bytes_saved,
                _ => 0,
            })
            .sum();
        assert!(saved > 0, "same-tenant runs must amortize evk fetches");
        let snaps = e.snapshots();
        let hit: u64 = snaps.iter().map(|s| s.evk.hit_bytes).sum();
        let miss: u64 = snaps.iter().map(|s| s.evk.miss_bytes).sum();
        assert_eq!(saved, hit, "response accounting matches shard stats");
        // Conservation: each of the 8 dispatches charged exactly once, and
        // a batch never crosses a shard (each shard has its own heads).
        assert_eq!(hit + miss, 8 * miss / 2);
        assert!(snaps.iter().all(|s| s.evk.miss_bytes > 0));
        let text = e.render_snapshots();
        assert!(
            text.contains("evk: hit-bytes="),
            "batching fleet renders the evk line: {text}"
        );
        // The same trace with batching off: no wrapper, no evk line, and
        // the snapshot text has no trace of the feature.
        let mut off = mk(false);
        let got_off = collect(&mut off, reqs);
        assert!(got_off
            .iter()
            .all(|r| !matches!(r.outcome, Outcome::Batched { .. })));
        assert!(!off.render_snapshots().contains("evk:"));
    }

    #[test]
    fn streaming_run_matches_itself_and_exports_fleet_metrics() {
        let run = || {
            let mut e = fleet(2, ShardConfig::new(2));
            let tpl = small_tpl();
            let mut tel = Telemetry::new(7);
            let mut sink = StreamingTraceSink::new(32);
            let mut obs = StreamObs::new(&mut tel, &mut sink);
            let mut got = Vec::new();
            let reqs: Vec<Request> = (0..6)
                .map(|i| req(i, i as u32, i as f64 * 1e6, &tpl))
                .collect();
            e.run_stream(reqs, |r| got.push(r.clone()), Some(&mut obs))
                .unwrap();
            (e.render_snapshots(), tel.prometheus(), got, sink.accepted())
        };
        let (snap_a, prom_a, got_a, spans_a) = run();
        let (snap_b, prom_b, got_b, spans_b) = run();
        assert_eq!(snap_a, snap_b, "snapshot text replays byte-identically");
        assert_eq!(prom_a, prom_b);
        assert_eq!(got_a, got_b);
        assert_eq!(spans_a, spans_b);
        assert!(spans_a > 0, "spans streamed through the sink");
        assert!(prom_a.contains("anaheim_shard_state{shard=\"0\"} 0"));
        assert!(prom_a.contains("anaheim_shard_events_total"));
        assert!(snap_a.starts_with("fleet: submitted=6"));
    }
}
