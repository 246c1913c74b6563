//! The serving configuration, request preparation, and the same-tenant
//! batch tracker.
//!
//! Each replica shard of a [`ShardedEngine`](crate::shard::ShardedEngine)
//! is its own executor (an [`Anaheim`] runtime, a persistent health
//! registry, and a batch tracker when batching is on); this module
//! supplies the pieces it runs in three steps:
//!
//! 1. **Prepare** (`PreparedTemplates`): each request's op sequence is
//!    fused/offloaded and costed fault-free to get `estimate_ns`. Both are
//!    pure functions of the template and the platform, so the fleet
//!    prepares each distinct template once, at its first request, and
//!    every later request of that template reuses the result.
//! 2. **Admit** (virtual time): a request whose projected start plus
//!    estimate overruns its deadline sheds with
//!    `Rejected::DeadlineInfeasible`.
//! 3. **Dispatch** (virtual time): lanes pick up queued requests in pop
//!    order, or the batch tracker pulls a same-tenant one forward
//!    ([`ServingConfig::ordering`]); each executes through the
//!    breaker-gated scheduler ([`Anaheim::run_prepared_with`], the shard's
//!    registry in `RunOptions::health`) under its own derived fault
//!    stream. Requests that finish late are reported as
//!    `Outcome::DeadlineMiss` — never as success.
//!
//! All three steps run on the caller's thread, in arrival order. Breaker
//! state is global, so executing requests in parallel would make
//! transition order depend on thread scheduling; serving reads no thread
//! count, and its outputs are the same at every `ANAHEIM_THREADS` value.

use std::collections::BTreeMap;
use std::sync::Arc;

use anaheim_core::framework::{Anaheim, AnaheimConfig};
use anaheim_core::health::RetryPolicy;
use anaheim_core::ir::OpSequence;
use anaheim_core::telemetry::{names, Telemetry};
use anaheim_core::RunError;
use pim::fault::FaultPlan;

use crate::queue::{AdmissionQueue, PopKey, QueueKey, Queued};
use crate::request::{Priority, Request};

/// The lane with the earliest free time (ties to the lowest index).
pub(crate) fn earliest_lane(lanes: &[f64]) -> usize {
    let mut best = 0usize;
    for i in 1..lanes.len() {
        if lanes[i] < lanes[best] {
            best = i;
        }
    }
    best
}

/// One dispatcher step: the lane and start time of the queue's head, if it
/// can start at or before `until_ns`. Shared by the shard's dispatch loop,
/// [`BatchTracker::select_dispatch`] and the property tests, so the test
/// drains exactly the dispatcher's schedule.
pub(crate) fn next_dispatch<T: Queued>(
    queue: &AdmissionQueue<T>,
    lanes: &[f64],
    until_ns: f64,
) -> Option<(usize, f64)> {
    let arrival = queue.peek(|p| p.arrival_ns())?;
    let lane = earliest_lane(lanes);
    let start = lanes[lane].max(arrival);
    (start <= until_ns).then_some((lane, start))
}

/// When would a request with key `cand` start if the queued `keys` plus
/// the candidate drained onto `lanes` in pop order from `now`? The sort
/// uses [`PopKey`] — the same total order the queue itself maintains — so
/// the projection cannot disagree with the dispatcher about who goes
/// first.
pub(crate) fn projected_start_from_keys(
    lanes: &[f64],
    mut keys: Vec<QueueKey>,
    cand: QueueKey,
    now: f64,
) -> f64 {
    let cand_id = cand.id;
    keys.push(cand);
    keys.sort_by_key(PopKey::of);
    let mut lanes = lanes.to_vec();
    for k in keys {
        let lane = earliest_lane(&lanes);
        let start = lanes[lane].max(now);
        if k.id == cand_id {
            return start;
        }
        lanes[lane] = start + k.estimate_ns;
    }
    unreachable!("candidate is always in the projection")
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// The platform every request runs on. Its fault plan is ignored —
    /// requests carry their own ([`Request::fault`]).
    pub platform: AnaheimConfig,
    /// Virtual execution lanes (concurrent requests in flight).
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Propagate each request's deadline into the scheduler as an execution
    /// budget: a request that exhausts it is cancelled at the next segment
    /// boundary ([`Outcome::Cancelled`](crate::Outcome::Cancelled)) instead
    /// of running to a post-hoc miss. Off by default — the no-budget path
    /// is bit-identical to the pre-budget engine.
    pub cancel_over_budget: bool,
    /// Same-tenant batch serving: a maximal run of consecutive dispatches
    /// from one tenant (on one shard — a batch never crosses a shard)
    /// shares one evaluation-key fetch. The batch head pays the full evk
    /// traffic ([`OpSequence::evk_read_bytes`]); every member that joins
    /// is reported as [`Outcome::Batched`](crate::Outcome::Batched) with
    /// the bytes it did not re-fetch. Dispatch *order* is untouched —
    /// batching is an accounting overlay on the schedule the queue already
    /// produces. Off by default: a non-batching engine is bit-identical to
    /// one built before the knob existed.
    pub batching: bool,
    /// Batch-aware dispatch ordering: at dispatch time the shard may pull
    /// a same-tenant request forward past at most
    /// [`OrderingConfig::max_bypass`] strangers to extend the open batch,
    /// but only when every bypassed request retains non-negative projected
    /// deadline slack (each is charged the candidate's estimate against
    /// the slack budget granted at admission). The evaluation-key bytes a
    /// join amortizes are credited back to the dispatch lane as virtual
    /// time at the platform GPU's DRAM bandwidth (`dram_bw_gbps`, GB/s
    /// read as bytes/ns), which is what turns `evk_bytes_saved` into
    /// throughput. Requires [`batching`]; `None` (the default) leaves
    /// dispatch order bit-identical to the plain batching overlay.
    ///
    /// [`batching`]: ServingConfig::batching
    pub ordering: Option<OrderingConfig>,
}

/// Tuning for batch-aware dispatch ordering
/// ([`ServingConfig::ordering`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderingConfig {
    /// Strangers a candidate may be pulled past in one swap, and the
    /// most times any single queued request may be bypassed — the
    /// K-bypass starvation bound.
    pub max_bypass: u32,
}

impl OrderingConfig {
    /// K = 4 bypasses.
    pub fn a100_default() -> Self {
        Self { max_bypass: 4 }
    }
}

impl ServingConfig {
    /// A100 near-bank platform with the serving retry policy, 4 lanes, and
    /// a 16-deep admission queue.
    pub fn a100_default(seed: u64) -> Self {
        Self {
            platform: AnaheimConfig::a100_near_bank()
                .with_retry_policy(RetryPolicy::serving_default(seed)),
            workers: 4,
            queue_capacity: 16,
            cancel_over_budget: false,
            batching: false,
            ordering: None,
        }
    }
}

/// Evaluation-key byte accounting of same-tenant batch serving
/// ([`ServingConfig::batching`]), conserved by construction: every
/// dispatched request's [`evk_read_bytes`] lands in exactly one of
/// `hit_bytes` (joined a batch) or `miss_bytes` (opened one), so
/// `hit_bytes + miss_bytes` equals the uncached evk traffic of the same
/// schedule with batching off — the invariant `scripts/check.sh` gates on.
///
/// [`evk_read_bytes`]: anaheim_core::ir::OpSequence::evk_read_bytes
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Evk bytes amortized by batch members (equal to the bytes saved).
    pub hit_bytes: u64,
    /// Evk bytes fetched cold by batch heads.
    pub miss_bytes: u64,
    /// Closed batches (a lone dispatch is a batch of one).
    pub batches: u64,
    /// Widest batch observed.
    pub max_batch: u64,
    /// Same-tenant requests pulled forward past strangers by batch-aware
    /// ordering ([`ServingConfig::ordering`]); 0 with ordering off.
    pub reorders: u64,
    /// Reorder candidates denied because a bypassed request's slack
    /// budget or the K-bypass bound would have been exceeded.
    pub reorder_denied_slack: u64,
}

impl BatchStats {
    /// Bytes batching kept off the memory bus — the hit bytes, by
    /// construction.
    pub fn saved_bytes(&self) -> u64 {
        self.hit_bytes
    }

    /// The evk traffic the same dispatch schedule implies with batching
    /// off (the conservation baseline).
    pub fn uncached_bytes(&self) -> u64 {
        self.hit_bytes + self.miss_bytes
    }
}

/// One shard's same-tenant batch tracker ([`ServingConfig::batching`]):
/// the open run, the ordering tuning, the bypass ledger and the lane
/// credit. All mutation happens on the serial virtual-time path, so it
/// replays bit-identically at any thread count.
#[derive(Debug, Default)]
pub(crate) struct BatchTracker {
    /// Tenant of the open run, if one is open.
    last_tenant: Option<u32>,
    /// Dispatches in the open run.
    run_len: u64,
    pub(crate) stats: BatchStats,
    /// Batch-aware ordering ([`ServingConfig::ordering`]), if on.
    pub(crate) ordering: Option<OrderingConfig>,
    /// Evaluation-key fetch bandwidth that prices saved bytes into lane
    /// credit: the platform GPU's `dram_bw_gbps` (GB/s reads as bytes/ns).
    evk_bytes_per_ns: f64,
    /// Per-request bypass ledger for batch-aware ordering, keyed by id:
    /// how often the queued request has been bypassed and how much of its
    /// admission-granted slack budget remains. Entries appear at first
    /// bypass and are dropped at dispatch.
    bypass_ledger: BTreeMap<u64, (u32, f64)>,
    /// Virtual ns credited back to dispatch lanes by evk amortization.
    pub(crate) evk_saved_ns: f64,
}

/// One entry of a dry-run slack charge: the queued request's id, its
/// slack budget after absorbing the candidate's estimate, and whether
/// the charge also counts against its `max_bypass` allowance (true only
/// for requests ahead of the candidate in pop order).
type SlackCharge = (u64, f64, bool);

impl BatchTracker {
    /// A tracker with no open run, crediting saved bytes at
    /// `evk_bytes_per_ns` when `ordering` is on.
    pub(crate) fn new(ordering: Option<OrderingConfig>, evk_bytes_per_ns: f64) -> Self {
        Self {
            ordering,
            evk_bytes_per_ns,
            ..Self::default()
        }
    }

    /// Notes one dispatch from `tenant` reading `evk_bytes` of evaluation
    /// keys, immediately before it executes. Returns the bytes amortized
    /// (0 at a batch head, which fetches cold) and the lane credit they
    /// buy: their fetch time, 0.0 with ordering off (the plain overlay
    /// observes savings but never converts them to time).
    pub(crate) fn note(
        &mut self,
        tenant: u32,
        evk_bytes: u64,
        tel: Option<&mut Telemetry>,
    ) -> (u64, f64) {
        let saved = if self.last_tenant == Some(tenant) {
            self.run_len += 1;
            self.stats.hit_bytes += evk_bytes;
            evk_bytes
        } else {
            self.close(tel);
            self.last_tenant = Some(tenant);
            self.run_len = 1;
            self.stats.miss_bytes += evk_bytes;
            0
        };
        let credit_ns = self
            .ordering
            .map_or(0.0, |_| saved as f64 / self.evk_bytes_per_ns);
        (saved, credit_ns)
    }

    /// Closes the open run (if any), scoring it into the stats and the
    /// batch-size histogram.
    pub(crate) fn close(&mut self, tel: Option<&mut Telemetry>) {
        if self.run_len > 0 {
            self.stats.batches += 1;
            self.stats.max_batch = self.stats.max_batch.max(self.run_len);
            if let Some(t) = tel {
                t.metrics
                    .observe(names::BATCH_SIZE, &[], self.run_len as f64);
            }
            self.run_len = 0;
            self.last_tenant = None;
        }
    }

    /// One dispatcher step with batch-aware ordering: the lane, start
    /// time, item, and whether the item was pulled forward out of pop
    /// order. With ordering off this is exactly [`next_dispatch`] +
    /// [`AdmissionQueue::pop`] — bit-identical to the plain overlay.
    ///
    /// With ordering on, when the head would break the open same-tenant
    /// run, the first `max_bypass + 1` queued items are scanned in pop
    /// order for a same-tenant candidate with nonzero evk traffic. The
    /// swap commits only if the candidate can also start by `until_ns`,
    /// every bypassed request (ahead of the candidate in pop order) has
    /// been bypassed fewer than `max_bypass` times, and *every* queued
    /// request retains enough of its admission-granted slack budget to
    /// absorb the candidate's estimate; otherwise the denial is counted
    /// and the head dispatches as usual. The whole queue is charged — not
    /// just the bypass window — because pulling a job forward perturbs
    /// lane packing for items far behind it too; list scheduling bounds
    /// any one item's extra delay by the moved job's length, so charging
    /// the full estimate to everyone is a conservative over-approximation
    /// of the imposed delay.
    pub(crate) fn select_dispatch(
        &mut self,
        queue: &mut AdmissionQueue<Prepared>,
        lanes: &[f64],
        until_ns: f64,
    ) -> Option<(usize, f64, Prepared, bool)> {
        let (lane, start) = next_dispatch(queue, lanes, until_ns)?;
        if let Some((key, cand_start, charged)) = self.reorder_candidate(queue, lanes, until_ns) {
            let p = queue.take(key).expect("window scan saw the candidate");
            for (id, remaining, counts_as_bypass) in &charged {
                let entry = self.bypass_ledger.entry(*id).or_insert((0, 0.0));
                if *counts_as_bypass {
                    entry.0 += 1;
                }
                entry.1 = *remaining;
            }
            self.stats.reorders += 1;
            self.bypass_ledger.remove(&p.id);
            return Some((lane, cand_start, p, true));
        }
        let p = queue.pop().expect("peek saw an item");
        self.bypass_ledger.remove(&p.id);
        Some((lane, start, p, false))
    }

    /// The committed reorder, if any: the candidate's [`PopKey`], its
    /// start time, and the post-charge ledger state
    /// `(id, remaining, counts_as_bypass)` of every other queued request
    /// — `counts_as_bypass` is true for requests the candidate jumps over
    /// (ahead of it in pop order), false for requests behind it, which
    /// only pay the lane-packing charge. Denials are counted here; `None`
    /// means "dispatch the head".
    fn reorder_candidate(
        &mut self,
        queue: &AdmissionQueue<Prepared>,
        lanes: &[f64],
        until_ns: f64,
    ) -> Option<(PopKey, f64, Vec<SlackCharge>)> {
        let cfg = self.ordering?;
        // Only extend an open run: a swap that *opens* a run saves no
        // fetch over letting the head open one instead.
        let run_tenant = self.last_tenant?;
        if queue.peek(|p| p.tenant)? == run_tenant {
            return None;
        }
        let mut cand: Option<(u64, f64, f64)> = None;
        let key = queue.find_in_window(cfg.max_bypass as usize + 1, |_, p| {
            if p.tenant == run_tenant && p.seq.evk_read_bytes() > 0 {
                cand = Some((p.id, p.arrival_ns, p.estimate_ns));
                true
            } else {
                false
            }
        })?;
        let (cand_id, cand_arrival, cand_estimate) = cand.expect("find matched");
        let lane = earliest_lane(lanes);
        let cand_start = lanes[lane].max(cand_arrival);
        if cand_start > until_ns {
            return None;
        }
        // Dry-run the charge over the whole queue in pop order: items
        // ahead of the candidate are bypassed (K-bound applies), items
        // behind it only absorb the lane-packing perturbation.
        let mut charged: Vec<SlackCharge> = Vec::new();
        let mut before_candidate = true;
        let mut denied = false;
        queue.for_each(|p| {
            if denied {
                return;
            }
            if p.id == cand_id {
                before_candidate = false;
                return;
            }
            let (count, remaining) = self
                .bypass_ledger
                .get(&p.id)
                .copied()
                .unwrap_or((0, p.slack_ns));
            if (before_candidate && count >= cfg.max_bypass) || remaining < cand_estimate {
                denied = true;
                return;
            }
            charged.push((p.id, remaining - cand_estimate, before_candidate));
        });
        if denied {
            self.stats.reorder_denied_slack += 1;
            return None;
        }
        Some((key, cand_start, charged))
    }

    /// Exports the batch byte counters idempotently under `shard`'s label,
    /// each guarded so an exposition without them is byte-identical to
    /// one rendered before the counters existed.
    pub(crate) fn export_evk(&self, tel: &mut Telemetry, shard: u32) {
        let s = self.stats;
        let sid = shard.to_string();
        let labels = [("shard", sid.as_str())];
        if s.hit_bytes > 0 {
            tel.metrics
                .set_counter(names::EVK_CACHE_HIT_BYTES, &labels, s.hit_bytes);
        }
        if s.miss_bytes > 0 {
            tel.metrics
                .set_counter(names::EVK_CACHE_MISS_BYTES, &labels, s.miss_bytes);
        }
        if s.reorders > 0 {
            tel.metrics
                .set_counter(names::REORDERS, &labels, s.reorders);
        }
        if s.reorder_denied_slack > 0 {
            tel.metrics
                .set_counter(names::REORDER_DENIED_SLACK, &labels, s.reorder_denied_slack);
        }
        if self.evk_saved_ns > 0.0 {
            tel.metrics
                .set_gauge(names::EVK_SAVED_NS, &labels, self.evk_saved_ns);
        }
    }
}

/// A prepared request: fused/offloaded sequence plus its fault-free cost,
/// admitted and dispatched through the shard layer's queues.
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    pub(crate) id: u64,
    pub(crate) tenant: u32,
    pub(crate) priority: Priority,
    pub(crate) arrival_ns: f64,
    pub(crate) deadline_ns: f64,
    pub(crate) estimate_ns: f64,
    pub(crate) fault: Option<FaultPlan>,
    pub(crate) label: &'static str,
    /// Slack budget granted at admission: the projected deadline headroom
    /// `(deadline − projected_start − estimate).max(0)`. Batch-aware
    /// ordering may delay this request by at most this much, total, across
    /// every bypass it suffers. 0 until admission grants it.
    pub(crate) slack_ns: f64,
    /// Prepared sequence, shared: requests built from the same template
    /// Arc prepare once and share the result ([`PreparedTemplates`]).
    pub(crate) seq: Arc<OpSequence>,
    /// Set by the shard router when the home shard was not accepting: the
    /// home shard id, so the executing shard wraps the outcome in
    /// [`Outcome::Rerouted`](crate::request::Outcome::Rerouted).
    pub(crate) rerouted_from: Option<u32>,
}

/// Every template a fleet has prepared, in first-sight order: the template
/// `Arc` a request carried, its fused/offloaded sequence, and its
/// fault-free `estimate_ns`. A template prepares once per fleet however
/// many requests carry it — a million-request soak over six workload
/// templates prepares six sequences — so the memo grows with the number of
/// distinct templates, not with the trace. Holding the template `Arc`
/// keeps its address from being reused by another template while the
/// entry lives.
#[derive(Debug, Default)]
pub(crate) struct PreparedTemplates(Vec<(Arc<OpSequence>, Arc<OpSequence>, f64)>);

impl PreparedTemplates {
    /// Prepares `req` on `rt`: a template seen before (the same `Arc`)
    /// reuses its prepared sequence and estimate, a new one is prepared,
    /// costed and remembered.
    pub(crate) fn prepare(&mut self, rt: &Anaheim, req: Request) -> Result<Prepared, RunError> {
        let slot = match self.0.iter().position(|(t, _, _)| Arc::ptr_eq(t, &req.seq)) {
            Some(i) => i,
            None => {
                let mut seq = (*req.seq).clone();
                rt.prepare(&mut seq);
                let estimate_ns = rt.run_prepared(&seq)?.total_ns;
                self.0.push((req.seq, Arc::new(seq), estimate_ns));
                self.0.len() - 1
            }
        };
        let (_, seq, estimate_ns) = &self.0[slot];
        Ok(Prepared {
            id: req.id,
            tenant: req.tenant,
            priority: req.priority,
            arrival_ns: req.arrival_ns,
            deadline_ns: req.deadline_ns,
            estimate_ns: *estimate_ns,
            fault: req.fault,
            label: req.label,
            slack_ns: 0.0,
            seq: Arc::clone(seq),
            rerouted_from: None,
        })
    }

    /// The number of distinct templates prepared so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

impl Queued for Prepared {
    fn id(&self) -> u64 {
        self.id
    }
    fn priority(&self) -> Priority {
        self.priority
    }
    fn arrival_ns(&self) -> f64 {
        self.arrival_ns
    }
    fn estimate_ns(&self) -> f64 {
        self.estimate_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anaheim_core::build::{Builder, LinTransStyle};
    use anaheim_core::params::ParamSet;
    use obs::StreamingTraceSink;
    use proptest::prelude::*;

    use crate::request::{Outcome, Rejected, Response};
    use crate::shard::{ShardConfig, ShardedEngine, StreamObs};

    fn small_seq() -> Arc<OpSequence> {
        let mut b = Builder::new(ParamSet::paper_default());
        Arc::new(b.lintrans(24, 4, LinTransStyle::Hoisting, true))
    }

    fn req(id: u64, arrival: f64, deadline: f64, priority: Priority) -> Request {
        Request {
            id,
            tenant: (id % 3) as u32,
            priority,
            arrival_ns: arrival,
            deadline_ns: deadline,
            seq: small_seq(),
            fault: None,
            label: "lintrans",
        }
    }

    fn two_lanes() -> ServingConfig {
        ServingConfig {
            workers: 2,
            queue_capacity: 2,
            ..ServingConfig::a100_default(7)
        }
    }

    /// Serves `trace` through a one-shard fleet built from `cfg`, returning
    /// the fleet and the responses sorted by id.
    fn serve(
        cfg: ServingConfig,
        trace: &[Request],
        obs: Option<&mut StreamObs<'_>>,
    ) -> (ShardedEngine, Vec<Response>) {
        let mut fleet = ShardedEngine::new(cfg, ShardConfig::new(1));
        let mut rs = Vec::new();
        fleet
            .run_stream(trace.to_vec(), |r| rs.push(r.clone()), obs)
            .unwrap();
        rs.sort_by_key(|r| r.id);
        (fleet, rs)
    }

    #[test]
    fn fault_free_requests_complete_in_order() {
        let trace: Vec<Request> = (0..4)
            .map(|i| req(i, i as f64 * 1e3, 1e12, Priority::Standard))
            .collect();
        let (e, rs) = serve(two_lanes(), &trace, None);
        assert_eq!(rs.len(), 4);
        assert!(rs.iter().all(|r| r.outcome.is_completed()));
        let counters = e.snapshots()[0].health.counters;
        assert_eq!(counters.completed, 4);
        assert_eq!(counters.submitted, 4);
    }

    #[test]
    fn infeasible_deadline_is_shed_not_executed() {
        // Deadline in the past relative to any possible completion.
        let (e, rs) = serve(
            two_lanes(),
            &[req(1, 0.0, 1.0, Priority::Interactive)],
            None,
        );
        assert_eq!(
            rs[0].outcome,
            Outcome::Rejected(Rejected::DeadlineInfeasible)
        );
        let counters = e.snapshots()[0].health.counters;
        assert_eq!(counters.shed_infeasible, 1);
        assert_eq!(counters.completed, 0);
    }

    #[test]
    fn queue_overflow_sheds_queue_full() {
        // 2 lanes busy + 2 queued = saturation; the rest shed. All arrive
        // at t=0 so nothing drains in between.
        let trace: Vec<Request> = (0..7)
            .map(|i| req(i, 0.0, 1e12, Priority::Standard))
            .collect();
        let (e, rs) = serve(two_lanes(), &trace, None);
        let counters = e.snapshots()[0].health.counters;
        let shed = rs
            .iter()
            .filter(|r| r.outcome == Outcome::Rejected(Rejected::QueueFull))
            .count();
        assert!(shed >= 1, "over-capacity arrivals must shed");
        assert_eq!(counters.shed_queue_full as usize, shed);
        assert_eq!(counters.max_queue_depth, 2);
        let served = rs.iter().filter(|r| r.outcome.is_completed()).count();
        assert_eq!(served + shed, 7);
    }

    #[test]
    fn traced_run_records_request_segments_and_health() {
        let trace: Vec<Request> = (0..2)
            .map(|i| req(i, i as f64 * 1e3, 1e12, Priority::Standard))
            .collect();
        let mut tel = Telemetry::new(7);
        let mut sink = StreamingTraceSink::new(1 << 16);
        let (_, rs) = serve(
            two_lanes(),
            &trace,
            Some(&mut StreamObs::new(&mut tel, &mut sink)),
        );
        assert!(rs.iter().all(|r| r.outcome.is_completed()));
        let segments: Vec<_> = sink
            .recent()
            .filter(|s| s.track == "shard-0" && s.cat == "segment")
            .collect();
        assert_eq!(segments.len(), 2, "one segment span per dispatched request");
        assert!(segments.iter().any(|s| s.name == "req0 lintrans"));
        // Kernel spans nest under the request segments.
        assert!(sink.recent().any(|s| s.cat == "element-wise"));
        // Latency observed per request; health exported once at the end.
        let lat = tel
            .metrics
            .histogram(names::REQUEST_LATENCY_NS, &[])
            .unwrap();
        assert_eq!(lat.count(), 2);
        assert_eq!(
            tel.metrics.counter_value(
                names::SERVING_EVENTS,
                &[("event", "submitted"), ("shard", "0")]
            ),
            2
        );
        // The same trace, replayed through a fresh engine, renders
        // byte-identically (the serial-lane determinism contract).
        let mut tel2 = Telemetry::new(7);
        let mut sink2 = StreamingTraceSink::new(1 << 16);
        serve(
            two_lanes(),
            &trace,
            Some(&mut StreamObs::new(&mut tel2, &mut sink2)),
        );
        assert!(sink.recent().eq(sink2.recent()));
        assert_eq!(tel.prometheus(), tel2.prometheus());
    }

    #[test]
    fn pipelined_platform_serves_and_replays_identically() {
        use anaheim_core::schedule::ScheduleMode;
        let mk = || ServingConfig {
            workers: 2,
            queue_capacity: 4,
            platform: AnaheimConfig::a100_near_bank()
                .with_retry_policy(RetryPolicy::serving_default(7))
                .with_schedule_mode(ScheduleMode::Pipelined),
            cancel_over_budget: false,
            batching: false,
            ordering: None,
        };
        let trace: Vec<Request> = (0..3)
            .map(|i| req(i, i as f64 * 1e3, 1e12, Priority::Standard))
            .collect();
        let mut tel = Telemetry::new(9);
        let mut sink = StreamingTraceSink::new(1 << 16);
        let (_, rs) = serve(mk(), &trace, Some(&mut StreamObs::new(&mut tel, &mut sink)));
        assert!(rs.iter().all(|r| r.outcome.is_completed()));
        // Pipelined runs put segments on their own stream tracks.
        assert!(sink
            .recent()
            .any(|s| s.track == "gpu-stream" || s.track == "pim-stream"));
        let mut tel2 = Telemetry::new(9);
        let mut sink2 = StreamingTraceSink::new(1 << 16);
        serve(
            mk(),
            &trace,
            Some(&mut StreamObs::new(&mut tel2, &mut sink2)),
        );
        assert!(sink.recent().eq(sink2.recent()));
        assert_eq!(tel.prometheus(), tel2.prometheus());
    }

    /// Generates a static-queue scenario: every item has arrived and every
    /// lane's free time is at or past the last arrival, so the projection
    /// (which clocks from `now`) and the dispatcher (which clocks from
    /// each head's arrival) see the same floor.
    fn arb_scenario() -> impl Strategy<Value = (Vec<QueueKey>, Vec<f64>)> {
        (
            prop::collection::vec((0u8..3, 0u32..8, 1u32..2000), 1..20),
            prop::collection::vec(0u32..500, 1..5),
        )
            .prop_map(|(raw, lane_offsets)| {
                let keys: Vec<QueueKey> = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, (p, arrival, estimate))| QueueKey {
                        id: i as u64,
                        priority: match p {
                            0 => Priority::Batch,
                            1 => Priority::Standard,
                            _ => Priority::Interactive,
                        },
                        arrival_ns: f64::from(arrival) * 100.0,
                        estimate_ns: f64::from(estimate),
                    })
                    .collect();
                let t = keys.iter().map(|k| k.arrival_ns).fold(0.0, f64::max);
                let lanes = lane_offsets.into_iter().map(|o| t + f64::from(o)).collect();
                (keys, lanes)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_projection_and_pop_order_match_dispatch(scenario in arb_scenario()) {
            let (keys, lanes0) = scenario;
            let now = keys.iter().map(|k| k.arrival_ns).fold(0.0, f64::max);
            let mut q = AdmissionQueue::new(keys.len());
            for k in &keys {
                q.submit(*k).unwrap();
            }
            let listed: Vec<u64> = q.keys_in_pop_order().iter().map(|k| k.id).collect();
            // Drain exactly the dispatcher's schedule (shared helper).
            let mut lanes = lanes0.clone();
            let mut starts = std::collections::HashMap::new();
            let mut actual: Vec<u64> = Vec::new();
            while let Some((lane, start)) = next_dispatch(&q, &lanes, f64::INFINITY) {
                let k = q.pop().expect("next_dispatch saw a head");
                starts.insert(k.id, start);
                actual.push(k.id);
                lanes[lane] = start + k.estimate_ns;
            }
            prop_assert_eq!(&actual, &listed, "keys_in_pop_order must be the dispatch order");
            // Admission projection must predict each item's actual start
            // bit-exactly, given the others queued ahead of it.
            for cand in &keys {
                let others: Vec<QueueKey> =
                    keys.iter().filter(|k| k.id != cand.id).copied().collect();
                let projected = projected_start_from_keys(&lanes0, others, *cand, now);
                prop_assert_eq!(
                    projected.to_bits(),
                    starts[&cand.id].to_bits(),
                    "projection diverged for id {} ({} vs {})",
                    cand.id,
                    projected,
                    starts[&cand.id]
                );
            }
        }
    }

    #[test]
    fn batching_amortizes_same_tenant_runs_and_conserves_bytes() {
        // One lane so dispatch order is the queue order; tenants arrive as
        // the runs A A A B B A — four batches, widest 3.
        let mk = |batching| ServingConfig {
            workers: 1,
            queue_capacity: 8,
            batching,
            ..ServingConfig::a100_default(7)
        };
        let tenants = [0u32, 0, 0, 1, 1, 0];
        let trace: Vec<Request> = tenants
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let mut r = req(i as u64, i as f64, 1e12, Priority::Standard);
                r.tenant = t;
                r
            })
            .collect();
        let (e, rs) = serve(mk(true), &trace, None);
        assert!(rs.iter().all(|r| r.outcome.is_completed()));
        let per_req = trace[0].seq.evk_read_bytes();
        assert!(per_req > 0, "lintrans reads evaluation keys");
        // Prepared sequences are fused, so the batch tracker sees the
        // prepared evk bytes; read them back from the stats instead of
        // assuming the unfused count.
        let s = e.snapshots()[0].evk;
        assert_eq!(s.batches, 3, "A-run, B-run, final A (closed by flush)");
        assert_eq!(s.max_batch, 3);
        assert_eq!(
            s.uncached_bytes(),
            s.hit_bytes + s.miss_bytes,
            "conservation by definition"
        );
        // 3 members joined batches (ids 1, 2, 4), 3 were heads.
        let saved: u64 = rs
            .iter()
            .map(|r| match r.outcome {
                Outcome::Batched {
                    evk_bytes_saved, ..
                } => evk_bytes_saved,
                _ => 0,
            })
            .sum();
        assert_eq!(
            saved, s.hit_bytes,
            "response-level and engine accounting agree"
        );
        assert_eq!(
            rs.iter()
                .filter(|r| matches!(r.outcome, Outcome::Batched { .. }))
                .count(),
            3
        );
        assert_eq!(s.hit_bytes, s.miss_bytes, "3 hits, 3 misses, equal sizes");
        // The same trace with batching off: identical final outcomes (the
        // schedule is untouched), no wrappers, zero stats.
        let (off, rs_off) = serve(mk(false), &trace, None);
        assert_eq!(off.snapshots()[0].evk, BatchStats::default());
        for (a, b) in rs.iter().zip(&rs_off) {
            assert_eq!(a.outcome.final_outcome(), b.outcome.final_outcome());
            assert!(!matches!(b.outcome, Outcome::Batched { .. }));
        }
        // The uncached baseline is the sum of all six dispatched evk reads.
        assert_eq!(s.uncached_bytes(), 2 * s.miss_bytes);
    }

    #[test]
    fn ordering_pulls_same_tenant_work_forward_within_slack() {
        let mk = |ordering| ServingConfig {
            workers: 1,
            queue_capacity: 8,
            batching: true,
            ordering,
            ..ServingConfig::a100_default(7)
        };
        // One lane; tenants arrive A A B A. While the A-run is open, the
        // stranger B heads the queue with the third A right behind it:
        // ordering pulls that A forward (B has ample slack), so the run
        // closes at width 3 and the pulled request is marked reordered.
        let tenants = [0u32, 0, 1, 0];
        let trace: Vec<Request> = tenants
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let mut r = req(i as u64, i as f64, 1e12, Priority::Standard);
                r.tenant = t;
                r
            })
            .collect();
        let (e, rs) = serve(mk(Some(OrderingConfig::a100_default())), &trace, None);
        assert!(rs.iter().all(|r| r.outcome.final_outcome().is_completed()));
        let s = e.snapshots()[0].evk;
        assert_eq!(s.reorders, 1, "{s:?}");
        assert_eq!(s.max_batch, 3, "the pulled request extends the A-run");
        assert!(
            matches!(
                rs.iter().find(|r| r.id == 3).unwrap().outcome,
                Outcome::Batched {
                    reordered: true,
                    ..
                }
            ),
            "the pulled-forward joiner is marked reordered"
        );
        assert!(
            matches!(
                rs.iter().find(|r| r.id == 1).unwrap().outcome,
                Outcome::Batched {
                    reordered: false,
                    ..
                }
            ),
            "an in-order joiner is not"
        );
        assert!(
            e.snapshots()[0].evk_saved_ns > 0.0,
            "the amortized fetch is credited back to the lane"
        );
        // The bypassed stranger still completes within its deadline.
        assert!(rs
            .iter()
            .find(|r| r.id == 2)
            .unwrap()
            .outcome
            .is_completed());
        // Same trace with ordering off: no reorders, no credit, and the
        // run stays split by the stranger.
        let (off, rs_off) = serve(mk(None), &trace, None);
        assert_eq!(off.snapshots()[0].evk.reorders, 0);
        assert_eq!(off.snapshots()[0].evk_saved_ns, 0.0);
        assert!(!rs_off.iter().any(|r| matches!(
            r.outcome,
            Outcome::Batched {
                reordered: true,
                ..
            }
        )));
    }

    /// A fabricated prepared request for dispatch-order tests: no
    /// execution happens, so the sequence is shared and the cost fields
    /// are whatever the scenario says.
    fn fabricated(k: &QueueKey, tenant: u32, slack_ns: f64, seq: &Arc<OpSequence>) -> Prepared {
        Prepared {
            id: k.id,
            tenant,
            priority: k.priority,
            arrival_ns: k.arrival_ns,
            deadline_ns: f64::INFINITY,
            estimate_ns: k.estimate_ns,
            fault: None,
            label: "fabricated",
            slack_ns,
            seq: Arc::clone(seq),
            rerouted_from: None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// With ordering off, [`BatchTracker::select_dispatch`] is exactly
        /// pop order — `keys_in_pop_order` predicts the drain
        /// item for item, nothing is flagged reordered, and the reorder
        /// counters stay zero. (Batching stays ON: the overlay alone must
        /// never touch dispatch order.)
        #[test]
        fn prop_ordering_off_is_exact_pop_order(scenario in arb_scenario()) {
            let (keys, lanes0) = scenario;
            let seq = small_seq();
            let mut e = BatchTracker::new(None, 1802.0);
            let mut q: AdmissionQueue<Prepared> = AdmissionQueue::new(keys.len());
            for k in &keys {
                q.submit(fabricated(k, (k.id % 3) as u32, 0.0, &seq)).unwrap();
            }
            let listed: Vec<u64> = q.keys_in_pop_order().iter().map(|k| k.id).collect();
            let mut lanes = lanes0.clone();
            let mut actual: Vec<u64> = Vec::new();
            while let Some((lane, start, p, reordered)) =
                e.select_dispatch(&mut q, &lanes, f64::INFINITY)
            {
                prop_assert!(!reordered, "ordering off must never reorder");
                e.note(p.tenant, p.seq.evk_read_bytes(), None);
                lanes[lane] = start + p.estimate_ns;
                actual.push(p.id);
            }
            prop_assert_eq!(&actual, &listed, "ordering off must drain in pop order");
            prop_assert_eq!(e.stats.reorders, 0);
            prop_assert_eq!(e.stats.reorder_denied_slack, 0);
            prop_assert_eq!(e.evk_saved_ns.to_bits(), 0.0f64.to_bits());
        }

        /// The starvation proof: with ordering on, under random
        /// arrival/priority/tenant/slack mixes, (a) no request is ever
        /// bypassed more than `max_bypass` times, and (b) every request's
        /// realized start stays within its pop-order projected start plus
        /// its granted slack budget — the reorder engine can never spend
        /// delay it was not granted.
        #[test]
        fn prop_bypass_bounded_by_k_and_slack_budget(
            scenario in arb_scenario(),
            slacks in prop::collection::vec(0u32..4000, 20),
        ) {
            let (keys, lanes0) = scenario;
            let now = keys.iter().map(|k| k.arrival_ns).fold(0.0, f64::max);
            let seq = small_seq();
            let max_bypass = 2u32;
            let mut e = BatchTracker::new(Some(OrderingConfig { max_bypass }), 1802.0);
            let granted: std::collections::HashMap<u64, f64> = keys
                .iter()
                .map(|k| (k.id, f64::from(slacks[k.id as usize % slacks.len()])))
                .collect();
            let mut q: AdmissionQueue<Prepared> = AdmissionQueue::new(keys.len());
            for k in &keys {
                q.submit(fabricated(k, (k.id % 3) as u32, granted[&k.id], &seq))
                    .unwrap();
            }
            // Pop-order baseline: the start each request was promised at
            // admission (same projection the engine grants slack against).
            let projected: std::collections::HashMap<u64, f64> = keys
                .iter()
                .map(|cand| {
                    let others: Vec<QueueKey> =
                        keys.iter().filter(|k| k.id != cand.id).copied().collect();
                    (cand.id, projected_start_from_keys(&lanes0, others, *cand, now))
                })
                .collect();
            let mut lanes = lanes0.clone();
            let mut bypasses: std::collections::HashMap<u64, u32> = Default::default();
            let mut realized: std::collections::HashMap<u64, f64> = Default::default();
            loop {
                let before: Vec<u64> = q.keys_in_pop_order().iter().map(|k| k.id).collect();
                let Some((lane, start, p, reordered)) =
                    e.select_dispatch(&mut q, &lanes, f64::INFINITY)
                else {
                    break;
                };
                if reordered {
                    for id in before.iter().take_while(|id| **id != p.id) {
                        *bypasses.entry(*id).or_insert(0) += 1;
                    }
                }
                e.note(p.tenant, p.seq.evk_read_bytes(), None);
                realized.insert(p.id, start);
                lanes[lane] = start + p.estimate_ns;
            }
            prop_assert_eq!(realized.len(), keys.len(), "every request dispatches: no starvation");
            for (id, count) in &bypasses {
                prop_assert!(
                    *count <= max_bypass,
                    "request {} bypassed {} times (bound {})",
                    id, count, max_bypass
                );
            }
            for k in &keys {
                let r = realized[&k.id];
                let bound = projected[&k.id] + granted[&k.id];
                prop_assert!(
                    r <= bound + 1e-6,
                    "request {} started at {} past its projected {} + slack {}",
                    k.id, r, projected[&k.id], granted[&k.id]
                );
            }
        }
    }

    #[test]
    fn interactive_jumps_the_queue() {
        let cfg = ServingConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServingConfig::a100_default(7)
        };
        // One lane: b1 runs; then batch b2..b4 and interactive i all queue.
        let mut trace = vec![
            req(0, 0.0, 1e12, Priority::Batch),
            req(1, 1.0, 1e12, Priority::Batch),
            req(2, 2.0, 1e12, Priority::Batch),
            req(3, 3.0, 1e12, Priority::Interactive),
        ];
        trace[3].label = "interactive";
        let (_, rs) = serve(cfg, &trace, None);
        let finish = |id: u64| match rs.iter().find(|r| r.id == id).unwrap().outcome {
            Outcome::Completed { finish_ns, .. } => finish_ns,
            ref o => panic!("{id} should complete, got {o:?}"),
        };
        assert!(
            finish(3) < finish(1) && finish(3) < finish(2),
            "interactive must overtake queued batch work"
        );
    }
}
