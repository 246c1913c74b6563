//! Counted fan-out of coarse, independent jobs: the two halves of a
//! bootstrap stage, the digits of a ModUp.
//!
//! A parallel [`join`] or [`map`] runs each job under
//! [`tune::run_inline`], so the job's own limb batches stay serial on
//! whichever thread runs it, and routes the job's op counts through one
//! [`SharedCounts`] sink that is folded after the join. A serial decision
//! runs the jobs in order on the calling thread, counting as usual. Either
//! way every job computes the same values and the counts are the same sums.

use ckks_math::tune::{self, Decision};

use crate::opcount::SharedCounts;

/// Runs `a` and `b`, concurrently if `decision` is parallel.
pub(crate) fn join<A: Send, B: Send>(
    decision: Decision,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    if !decision.parallel() {
        return (a(), b());
    }
    let sink = SharedCounts::new();
    let (mut ra, mut rb) = (None, None);
    parpool::scope(|s| {
        s.spawn(|| ra = Some(sink.record(|| tune::run_inline(a))));
        s.spawn(|| rb = Some(sink.record(|| tune::run_inline(b))));
    });
    sink.fold();
    (
        ra.expect("scope joins every spawned job"),
        rb.expect("scope joins every spawned job"),
    )
}

/// Maps `f` over `items` in order, as `decision.jobs` chunked pool jobs if
/// `decision` is parallel.
pub(crate) fn map<T: Sync, U: Send>(
    decision: Decision,
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    if !decision.parallel() {
        return items.iter().map(f).collect();
    }
    let sink = SharedCounts::new();
    let out = parpool::par_map_chunked(items, decision.jobs, |_, x| {
        sink.record(|| tune::run_inline(|| f(x)))
    });
    sink.fold();
    out
}
