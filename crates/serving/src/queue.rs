//! The bounded, priority-ordered admission queue.
//!
//! Plain data behind `&mut self`: each shard fills and drains its own
//! queue serially in virtual time, which is what keeps soak runs
//! bit-identical across `ANAHEIM_THREADS`.
//!
//! Pop order is total and deterministic: priority (descending), then
//! arrival time, then id. That order is defined exactly once — by the
//! derived `Ord` on [`PopKey`] — and the queue stores items in a
//! `BTreeMap` keyed by it, so `pop`, `peek`, and `keys_in_pop_order` all
//! read the same head in O(log n) instead of re-deriving the order with
//! per-call scans (the old O(n) scan per pop made a full soak drain
//! O(n²), and `peek` carried its own reduction that could drift from
//! `pop`'s).

use std::collections::BTreeMap;

use crate::request::{Priority, Rejected};

/// Items the queue can order: anything exposing the scheduling key.
pub trait Queued {
    /// Unique id (final tie-breaker).
    fn id(&self) -> u64;
    /// Priority class.
    fn priority(&self) -> Priority;
    /// Arrival time (virtual ns).
    fn arrival_ns(&self) -> f64;
    /// Estimated service time (virtual ns), used for admission projection.
    fn estimate_ns(&self) -> f64;
}

/// Monotone `f64 → u64` key encoding: for all non-NaN-free pairs,
/// `a.total_cmp(&b) == f64_order_bits(a).cmp(&f64_order_bits(b))`.
fn f64_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The pop-order key: the single definition of "who goes next", shared by
/// [`AdmissionQueue::pop`], [`AdmissionQueue::peek`],
/// [`AdmissionQueue::keys_in_pop_order`], and the serving engine's
/// start-time projection. The derived `Ord` *is* the queue discipline —
/// priority descending, then arrival ascending (`total_cmp`), then id —
/// so the two sides can never disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PopKey {
    prio: std::cmp::Reverse<Priority>,
    arrival_bits: u64,
    id: u64,
}

impl PopKey {
    /// The pop-order key of `item`.
    pub fn of<T: Queued>(item: &T) -> Self {
        Self {
            prio: std::cmp::Reverse(item.priority()),
            arrival_bits: f64_order_bits(item.arrival_ns()),
            id: item.id(),
        }
    }
}

/// A bounded admission queue with deterministic pop order.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    // Ids are unique per trace, so `PopKey` (which ends in the id) never
    // collides and the map holds every submitted item.
    items: BTreeMap<PopKey, T>,
    capacity: usize,
}

impl<T: Queued> AdmissionQueue<T> {
    /// An empty queue holding at most `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        Self {
            items: BTreeMap::new(),
            capacity,
        }
    }

    /// Capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued requests right now.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits a request, or sheds it with [`Rejected::QueueFull`] when at
    /// capacity. Returns the queue depth after insertion.
    pub fn submit(&mut self, item: T) -> Result<usize, Rejected> {
        if self.items.len() >= self.capacity {
            return Err(Rejected::QueueFull);
        }
        self.items.insert(PopKey::of(&item), item);
        Ok(self.items.len())
    }

    /// Removes and returns the next request in pop order.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_first().map(|(_, item)| item)
    }

    /// Applies `f` to the head (next to pop) without removing it.
    pub fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.items.first_key_value().map(|(_, item)| f(item))
    }

    /// The scheduling keys of all queued items, in pop order — the input
    /// to the admission-control start-time projection.
    pub fn keys_in_pop_order(&self) -> Vec<QueueKey> {
        self.items
            .values()
            .map(|it| QueueKey {
                id: it.id(),
                priority: it.priority(),
                arrival_ns: it.arrival_ns(),
                estimate_ns: it.estimate_ns(),
            })
            .collect()
    }

    /// Applies `f` to each of the first `window` items in pop order (head
    /// first) and returns the [`PopKey`] of the first item for which `f`
    /// returns true — the windowed candidate scan batch-aware ordering
    /// uses to find a same-tenant request within K bypasses of the head.
    /// Read-only: the queue is not mutated.
    pub fn find_in_window(
        &self,
        window: usize,
        mut f: impl FnMut(usize, &T) -> bool,
    ) -> Option<PopKey> {
        self.items
            .iter()
            .take(window)
            .enumerate()
            .find(|(pos, (_, item))| f(*pos, item))
            .map(|(_, (key, _))| *key)
    }

    /// Applies `f` to every queued item in pop order (head first).
    /// Read-only: the queue is not mutated. Batch-aware ordering uses this
    /// to charge every queued request's slack budget before committing a
    /// reorder — a pulled-forward job can perturb lane packing for items
    /// far beyond the bypass window, so all of them must absorb it.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for item in self.items.values() {
            f(item);
        }
    }

    /// Removes and returns the item stored under `key`, if present — the
    /// commit half of a reorder: the candidate found by
    /// [`find_in_window`](Self::find_in_window) is taken out of order,
    /// everything else keeps its [`PopKey`] position.
    pub fn take(&mut self, key: PopKey) -> Option<T> {
        self.items.remove(&key)
    }
}

/// The scheduling key of one queued request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueKey {
    /// Request id.
    pub id: u64,
    /// Priority class.
    pub priority: Priority,
    /// Arrival time (virtual ns).
    pub arrival_ns: f64,
    /// Estimated service time (virtual ns).
    pub estimate_ns: f64,
}

impl Queued for QueueKey {
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
    use proptest::prelude::*;

    fn key(id: u64, priority: Priority, arrival: f64) -> QueueKey {
        QueueKey {
            id,
            priority,
            arrival_ns: arrival,
            estimate_ns: 100.0,
        }
    }

    /// Reference oracle for the pop order, kept separate from [`PopKey`]
    /// on purpose: `true` if `a` pops before `b`.
    fn pops_before(a: &QueueKey, b: &QueueKey) -> bool {
        match a.priority.cmp(&b.priority) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => match a.arrival_ns.total_cmp(&b.arrival_ns) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a.id < b.id,
            },
        }
    }

    #[test]
    fn pop_order_is_priority_then_arrival_then_id() {
        let mut q = AdmissionQueue::new(8);
        q.submit(key(3, Priority::Batch, 0.0)).unwrap();
        q.submit(key(1, Priority::Interactive, 50.0)).unwrap();
        q.submit(key(2, Priority::Interactive, 10.0)).unwrap();
        q.submit(key(5, Priority::Standard, 5.0)).unwrap();
        q.submit(key(4, Priority::Standard, 5.0)).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|k| k.id).collect();
        assert_eq!(order, vec![2, 1, 4, 5, 3]);
    }

    #[test]
    fn capacity_sheds_queue_full() {
        let mut q = AdmissionQueue::new(2);
        assert_eq!(q.submit(key(1, Priority::Standard, 0.0)), Ok(1));
        assert_eq!(q.submit(key(2, Priority::Standard, 1.0)), Ok(2));
        assert_eq!(
            q.submit(key(3, Priority::Interactive, 2.0)),
            Err(Rejected::QueueFull),
        );
        q.pop().unwrap();
        assert_eq!(q.submit(key(3, Priority::Interactive, 2.0)), Ok(2));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: AdmissionQueue<QueueKey> = AdmissionQueue::new(4);
        assert!(q.peek(|k| k.id).is_none());
        q.submit(key(7, Priority::Batch, 3.0)).unwrap();
        q.submit(key(8, Priority::Interactive, 9.0)).unwrap();
        assert_eq!(q.peek(|k| k.id), Some(8));
        assert_eq!(q.pop().unwrap().id, 8);
        assert_eq!(q.peek(|k| k.id), Some(7));
    }

    #[test]
    fn keys_in_pop_order_match_pops() {
        let mut q = AdmissionQueue::new(8);
        for (id, p, a) in [
            (1, Priority::Batch, 4.0),
            (2, Priority::Interactive, 9.0),
            (3, Priority::Standard, 1.0),
        ] {
            q.submit(key(id, p, a)).unwrap();
        }
        let keys: Vec<u64> = q.keys_in_pop_order().iter().map(|k| k.id).collect();
        let pops: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|k| k.id).collect();
        assert_eq!(keys, pops);
    }

    #[test]
    fn find_in_window_scans_pop_order_and_take_removes_by_key() {
        let mut q = AdmissionQueue::new(8);
        q.submit(key(3, Priority::Batch, 0.0)).unwrap();
        q.submit(key(1, Priority::Interactive, 50.0)).unwrap();
        q.submit(key(2, Priority::Interactive, 10.0)).unwrap();
        q.submit(key(5, Priority::Standard, 5.0)).unwrap();
        // Pop order is [2, 1, 5, 3]; a window of 3 must see exactly the
        // first three, head first.
        let mut seen = Vec::new();
        let hit = q.find_in_window(3, |pos, k| {
            seen.push((pos, k.id));
            k.id == 5
        });
        assert_eq!(seen, vec![(0, 2), (1, 1), (2, 5)]);
        let hit = hit.expect("id 5 is within the window");
        // A window that ends before the match finds nothing.
        assert_eq!(q.find_in_window(2, |_, k| k.id == 5), None);
        // Taking by key removes exactly that item; the rest keep order.
        assert_eq!(q.take(hit).unwrap().id, 5);
        assert_eq!(q.take(hit), None, "double-take must miss");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|k| k.id).collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn negative_and_special_arrivals_order_like_total_cmp() {
        // The f64→u64 key encoding must agree with total_cmp across sign
        // and magnitude boundaries.
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            1e300,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    f64_order_bits(a).cmp(&f64_order_bits(b)),
                    a.total_cmp(&b),
                    "encoding diverged at {a} vs {b}"
                );
            }
        }
    }

    fn arb_keys() -> impl Strategy<Value = Vec<QueueKey>> {
        // Coarse arrival buckets force ties so the id tie-break is
        // exercised, not just reachable; ids are positions, so unique.
        prop::collection::vec((0u8..3, 0u32..8, 1u32..2000), 1..24).prop_map(|raw| {
            raw.into_iter()
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
                .collect()
        })
    }

    proptest! {
        #[test]
        fn prop_pop_sequence_matches_keys_and_oracle(keys in arb_keys()) {
            let mut q = AdmissionQueue::new(keys.len());
            for k in &keys {
                q.submit(*k).unwrap();
            }
            let listed = q.keys_in_pop_order();
            // Oracle: selection sort by the reference comparator.
            let mut oracle = keys.clone();
            oracle.sort_by(|a, b| {
                if pops_before(a, b) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            let mut popped = Vec::new();
            loop {
                let head = q.peek(|k| k.id);
                match q.pop() {
                    Some(k) => {
                        prop_assert_eq!(head, Some(k.id), "peek must agree with pop");
                        popped.push(k);
                    }
                    None => {
                        prop_assert_eq!(head, None);
                        break;
                    }
                }
            }
            let ids = |v: &[QueueKey]| v.iter().map(|k| k.id).collect::<Vec<_>>();
            prop_assert_eq!(ids(&popped), ids(&listed));
            prop_assert_eq!(ids(&popped), ids(&oracle));
        }
    }
}
