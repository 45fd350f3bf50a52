//! The timed event queue.
//!
//! A binary min-heap of compact keys over a slab of event payloads. The
//! contract: events pop ordered by [`SimTime`], ties break in insertion
//! order (a monotone sequence number), and debug builds refuse to
//! schedule into the past.
//!
//! Why a plain heap: it fits the traffic the simulator produces. Counted
//! on the three perfbench workloads, few events are pending at once — a
//! mean of 21 on `sweep`, 310 on `dense` and 12 on the 4-host `cell`
//! (maxima 166, 644 and 71) — and they sit ~1 per µs of simulated time.
//! At those depths a heap sift is a handful of comparisons. The timer
//! wheel this replaced cost more: 85–86 % of its pops found the drain
//! bucket empty and refilled it (an occupancy-bitmap scan plus a heap
//! rebuild, for ~1.1 events per refill), and its 4096-bucket ring kept
//! ~1 MB per machine cycling through cache.
//!
//! Why compact keys: a sift moves entries, so the heap holds only a
//! 24-byte `(at, seq, slot)` key and compares `(at, seq)` as one 128-bit
//! integer. The payload stays in a slab slot until its key pops. Freed
//! slots are reused through a free list, so the slab never outgrows the
//! run's peak pending count and the steady state allocates nothing. A
//! heap of inline 56-byte entries (payload included) ran `dense` 3–11 %
//! slower end to end. [`EventQueue::peek_time`] is O(1); the multi-host
//! merge peeks every host's queue on every step.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Heap entry: when, the tie-breaking push number, and where the payload
/// lives in the slab.
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `(at, seq)` as one integer, so each sift step is a single
    /// comparison.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        other.rank().cmp(&self.rank())
    }
}

/// A deterministic priority queue of `(SimTime, E)` events.
///
/// Events scheduled for the same instant pop in the order they were pushed.
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Payloads by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `SimTime::ZERO`. It grows to the
    /// run's peak pending count and keeps that capacity.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `ev` at absolute instant `at`.
    ///
    /// Debug builds panic if `at` is before the last popped instant — a
    /// causality violation that would silently corrupt a release run.
    #[inline]
    pub fn push(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.last_popped,
            "scheduling into the past: {at:?} < {:?}",
            self.last_popped
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev);
                slot
            }
            None => {
                self.slab.push(Some(ev));
                (self.slab.len() - 1) as u32
            }
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Key { at, seq, slot });
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        let ev = self.slab[key.slot as usize]
            .take()
            .expect("a queued key owns its slab slot");
        self.free.push(key.slot);
        self.last_popped = key.at;
        Some((key.at, ev))
    }

    /// The instant of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The instant of the most recently popped event (the queue's notion of
    /// "now").
    #[inline]
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Total number of events ever pushed (diagnostics).
    #[inline]
    pub fn pushed_total(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(t(7), ());
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(t(3), ());
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_sees_far_and_near_events() {
        let mut q = EventQueue::new();
        q.push(t(100_000), "far");
        assert_eq!(q.peek_time(), Some(t(100_000)));
        // A nearer event pushed later becomes the new minimum.
        q.push(t(50), "near");
        assert_eq!(q.peek_time(), Some(t(50)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_cross_the_horizon_in_order() {
        // Far timers (RTO scale) interleaved with near follow-ups.
        let mut q = EventQueue::new();
        let times = [1u64, 5_000, 3, 80_000, 79_999, 2, 400_000, 5_001];
        for (i, &us) in times.iter().enumerate() {
            q.push(t(us), i);
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().cloned().zip(0..).collect();
        sorted.sort_by_key(|&(us, i)| (us, i));
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(at, i)| ((at - SimTime::ZERO).as_nanos() / 1000, i))
            .collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn push_mid_drain_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "a");
        q.push(SimTime::from_nanos(900), "d");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        // Pushes after a pop land between pending entries.
        q.push(SimTime::from_nanos(500), "b");
        q.push(SimTime::from_nanos(700), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "c", "d"]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn rejects_past_scheduling_in_debug() {
        let mut q = EventQueue::new();
        q.push(t(10), ());
        q.pop();
        q.push(t(5), ());
    }

    /// Reference model: a plain `BinaryHeap` of inline `(time, seq, event)`
    /// entries. `seq` is unique, so the event itself is never compared.
    struct RefHeap<E> {
        heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
        seq: u64,
    }

    impl<E: Ord> RefHeap<E> {
        fn new() -> Self {
            RefHeap {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, at: SimTime, ev: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((at, seq, ev)));
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
        }
    }

    proptest! {
        /// Whatever the push order, pops are sorted by time and ties keep
        /// push order.
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &us) in times.iter().enumerate() {
                q.push(t(us), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().cloned().zip(0..).collect();
            expected.sort_by_key(|&(us, i)| (us, i));
            let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
                .map(|(at, i)| ((at - SimTime::ZERO).as_nanos() / 1000, i))
                .collect();
            prop_assert_eq!(got, expected);
        }

        /// The queue pops in exactly the order of the reference
        /// `BinaryHeap` model under arbitrary push/pop interleavings,
        /// with pushes relative to the advancing "now" from
        /// same-instant follow-ups out to 16 ms timers.
        #[test]
        fn prop_matches_heap_model(
            ops in proptest::collection::vec((any::<bool>(), 0u64..16_000_000), 2..400)
        ) {
            let mut q = EventQueue::new();
            let mut model = RefHeap::new();
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            for (is_pop, delta_ns) in ops {
                if is_pop {
                    let got = q.pop();
                    let want = model.pop();
                    match (got, want) {
                        (Some((gt, gv)), Some((wt, wv))) => {
                            prop_assert_eq!(gt, wt);
                            prop_assert_eq!(gv, wv);
                            now = gt;
                        }
                        (None, None) => {}
                        (g, w) => prop_assert!(false, "mismatch: {g:?} vs {w:?}"),
                    }
                } else {
                    let at = now + SimDuration::from_nanos(delta_ns);
                    q.push(at, id);
                    model.push(at, id);
                    id += 1;
                }
            }
            // Drain the rest; orders must agree to the end.
            loop {
                let got = q.pop();
                let want = model.pop();
                prop_assert_eq!(got.is_some(), want.is_some());
                match (got, want) {
                    (Some(g), Some(w)) => prop_assert_eq!(g, w),
                    _ => break,
                }
            }
            prop_assert!(q.is_empty());
        }

        /// Under arbitrary push/pop interleavings (pushes weighted 3:2 so
        /// the depth wanders), `peek_time` always names the instant the
        /// next `pop` returns, and freed slab slots are reused: the slab
        /// never holds more slots than the peak pending count, and every
        /// slot is either pending or on the free list.
        #[test]
        fn prop_peek_matches_next_pop_and_slab_stays_at_peak(
            ops in proptest::collection::vec((0u8..5, 0u64..5_000), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut now = SimTime::ZERO;
            let mut peak = 0usize;
            for (op, delta_ns) in ops {
                if op < 3 {
                    q.push(now + SimDuration::from_nanos(delta_ns), ());
                } else {
                    let peeked = q.peek_time();
                    let popped = q.pop().map(|(at, ())| at);
                    prop_assert_eq!(peeked, popped);
                    if let Some(at) = popped {
                        now = at;
                    }
                }
                peak = peak.max(q.len());
                prop_assert!(q.slab.len() <= peak, "slab {} > peak {peak}", q.slab.len());
                prop_assert_eq!(q.slab.len(), q.len() + q.free.len());
            }
            while !q.is_empty() {
                let peeked = q.peek_time();
                prop_assert_eq!(peeked, q.pop().map(|(at, ())| at));
            }
            prop_assert_eq!(q.peek_time(), None);
            prop_assert_eq!(q.free.len(), q.slab.len());
        }
    }
}
