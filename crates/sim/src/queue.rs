//! The timed event queue.
//!
//! An 8-key sorted front ahead of a binary min-heap, both holding packed
//! `u128` keys over a slab of event payloads. The contract: events pop
//! ordered by [`SimTime`], ties break in insertion order (a monotone
//! sequence number), and debug builds refuse to schedule into the past.
//!
//! Why a front: the design relies on the push-delta mix of the
//! simulator's traffic. Most pushes land a few µs after `now` and pop
//! within a few places, while millisecond timer re-arms sit in the queue
//! and keep it dozens to hundreds deep, so in a plain heap every near
//! event would pay a full sift in and out. A push inserts into the front
//! from its soonest end; when the front is full, the later of the new
//! key and the front's latest key goes to the heap. A pop takes the
//! earlier of the front's soonest key and the heap's top, so the pop
//! order never depends on how keys are split between the two. DESIGN.md
//! §8 has the measured mix, the front's hit rate and the costs.
//!
//! Why packed keys: the heap and the front move keys, never payloads.
//! A key is `(at, seq, slot)` in one `u128` (64 / 40 / 24 bits), so it
//! compares as `(at, seq)` in one integer comparison; a push that would
//! overflow a field panics, in release builds too (limits on
//! [`EventQueue::push`]). The payload stays in a slab slot until its key
//! pops. Freed slots are reused through a free list, so the slab never
//! outgrows the run's peak pending count and the steady state allocates
//! nothing. [`EventQueue::peek_time`] is O(1); the multi-host merge peeks
//! every host's queue on every step.
//!
//! Why payloads are `Copy`, pushes split in two and pops hand out a
//! slot: a payload is written once and read once. `push` is inlined into
//! its caller and stores the payload straight into its slot, then files
//! the key out of line (`schedule`); `pop_slot` hands out the slot, and
//! the caller reads the payload there, each field at its own width, as
//! it was stored. No payload passes through a stack temporary written
//! at one width and read back at another, which stalls store forwarding
//! (DESIGN.md §8). A freed slot keeps its stale payload until reused.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Keys held in the sorted front ahead of the heap.
const FRONT: usize = 8;

/// Bit widths of the `seq` and `slot` fields packed under `at` in a key.
const SEQ_BITS: u32 = 40;
const SLOT_BITS: u32 = 24;

/// Stands for "no key" when comparing the front's and the heap's soonest
/// keys. No real key equals it: the all-ones slot is never handed out.
const NO_KEY: u128 = u128::MAX;

/// `(at, seq, slot)` as one integer: `at` in the high 64 bits, then a
/// 40-bit push number, then a 24-bit slab slot. `seq` is unique, so keys
/// order exactly as `(at, seq)` and `slot` only rides along.
#[inline]
fn pack(at: SimTime, seq: u64, slot: u32) -> u128 {
    assert!(
        seq >> SEQ_BITS == 0 && slot < (1 << SLOT_BITS) - 1,
        "event key field overflow: seq {seq}, slot {slot}"
    );
    (u128::from(at.as_nanos()) << 64) | u128::from(seq << SLOT_BITS) | u128::from(slot)
}

#[inline]
fn key_at(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

#[inline]
fn key_slot(key: u128) -> usize {
    (key as u64 & ((1 << SLOT_BITS) - 1)) as usize
}

/// A deterministic priority queue of `(SimTime, E)` events.
///
/// Events scheduled for the same instant pop in the order they were pushed.
pub struct EventQueue<E> {
    /// Up to [`FRONT`] keys sorted descending: the soonest is
    /// `front[front_len - 1]`.
    front: [u128; FRONT],
    front_len: usize,
    /// Keys evicted from, or too late for, the full front.
    heap: BinaryHeap<Reverse<u128>>,
    /// Payloads by slot; a slot on the free list holds a stale payload.
    slab: Vec<E>,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    seq: u64,
    last_popped: SimTime,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue positioned at `SimTime::ZERO`. It grows to the
    /// run's peak pending count and keeps that capacity.
    pub fn new() -> Self {
        EventQueue {
            front: [0; FRONT],
            front_len: 0,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// An empty queue whose next push number is `seq`, to reach the key
    /// field limits without 2^40 pushes.
    #[cfg(test)]
    fn with_seq(seq: u64) -> Self {
        EventQueue { seq, ..Self::new() }
    }

    /// Schedule `ev` at absolute instant `at`.
    ///
    /// Debug builds panic if `at` is before the last popped instant — a
    /// causality violation that would silently corrupt a release run.
    ///
    /// Every build panics on the push that would overflow a key field:
    /// the 2^40-th push into one queue (about 30 h of host time at
    /// 10 M pushes/s), or a push while 2^24 − 1 events are pending.
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.last_popped,
            "scheduling into the past: {at:?} < {:?}",
            self.last_popped
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = ev;
                slot
            }
            None => {
                self.slab.push(ev);
                (self.slab.len() - 1) as u32
            }
        };
        self.schedule(at, slot);
    }

    /// File the key of the payload just stored in `slot`.
    fn schedule(&mut self, at: SimTime, slot: u32) {
        let key = pack(at, self.seq, slot);
        self.seq += 1;
        if self.front_len == FRONT {
            // Full: the later of the new key and the front's latest goes
            // to the heap.
            let latest = self.front[0];
            if key > latest {
                self.heap.push(Reverse(key));
                return;
            }
            self.heap.push(Reverse(latest));
            self.front.copy_within(1.., 0);
            self.front_len -= 1;
        }
        // Insert from the soonest end, where most pushes land.
        let mut i = self.front_len;
        while i > 0 && self.front[i - 1] < key {
            self.front[i] = self.front[i - 1];
            i -= 1;
        }
        self.front[i] = key;
        self.front_len += 1;
    }

    /// The front's soonest key, or [`NO_KEY`] if the front is empty.
    #[inline]
    fn front_soonest(&self) -> u128 {
        match self.front_len {
            0 => NO_KEY,
            n => self.front[n - 1],
        }
    }

    /// The heap's soonest key, or [`NO_KEY`] if the heap is empty.
    #[inline]
    fn heap_soonest(&self) -> u128 {
        self.heap.peek().map_or(NO_KEY, |&Reverse(k)| k)
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, slot) = self.pop_slot()?;
        Some((at, self.slab[slot]))
    }

    /// Remove the earliest event and return its instant and the slot
    /// holding its payload, read in place through
    /// [`EventQueue::payload`]. The slot is free again: the next push may
    /// reuse it, so read what the payload carries before pushing.
    #[inline]
    pub fn pop_slot(&mut self) -> Option<(SimTime, usize)> {
        let soonest = self.front_soonest();
        let key = if soonest < self.heap_soonest() {
            self.front_len -= 1;
            soonest
        } else {
            self.heap.pop()?.0
        };
        let slot = key_slot(key);
        self.free.push(slot as u32);
        let at = key_at(key);
        self.last_popped = at;
        Some((at, slot))
    }

    /// The payload in `slot`, as [`EventQueue::push`] stored it.
    #[inline]
    pub fn payload(&self, slot: usize) -> &E {
        &self.slab[slot]
    }

    /// The instant of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = self.front_soonest().min(self.heap_soonest());
        (key != NO_KEY).then(|| key_at(key))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.front_len + self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (diagnostics). At most 2^40:
    /// [`EventQueue::push`] panics before it would pass that.
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
        assert_eq!(q.last_popped, SimTime::ZERO);
        q.push(t(7), ());
        q.pop();
        assert_eq!(q.last_popped, t(7));
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

    #[test]
    fn full_front_evicts_its_latest_key_to_the_heap() {
        let mut q = EventQueue::new();
        for us in 10..18 {
            q.push(t(us), us);
        }
        assert_eq!((q.front_len, q.heap.len()), (FRONT, 0));
        // Later than the whole front: straight to the heap.
        q.push(t(100), 100);
        assert_eq!((q.front_len, q.heap.len()), (FRONT, 1));
        // Sooner than the front's latest (17): 17 is evicted.
        q.push(t(1), 1);
        assert_eq!((q.front_len, q.heap.len()), (FRONT, 2));
        assert_eq!(key_at(q.front[0]), t(16));
        assert_eq!(q.peek_time(), Some(t(1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 10, 11, 12, 13, 14, 15, 16, 17, 100]);
    }

    #[test]
    fn heap_key_pops_before_every_front_key() {
        let mut q = EventQueue::new();
        for us in 1..=9 {
            q.push(t(us), us);
        }
        // 9 overflowed the full front; draining the front leaves it alone.
        for us in 1..=8 {
            assert_eq!(q.pop(), Some((t(us), us)));
        }
        assert_eq!((q.front_len, q.heap.len()), (0, 1));
        // The refilled front is entirely later than the heap's key.
        for us in [300, 100, 200] {
            q.push(t(us), us);
        }
        assert_eq!((q.front_len, q.heap.len()), (3, 1));
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.pop(), Some((t(9), 9)));
        assert_eq!((q.front_len, q.heap.len()), (3, 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![100, 200, 300]);
    }

    #[test]
    fn same_instant_stays_fifo_when_a_later_push_reuses_a_lower_slot() {
        let mut q = EventQueue::new();
        q.push(t(1), "x"); // slot 0
        q.push(t(5), "y"); // slot 1
        assert_eq!(q.pop(), Some((t(1), "x")));
        q.push(t(5), "z"); // reuses slot 0, pushed after y
        assert_eq!(key_slot(q.front[0]), 0, "z, the latest key, holds slot 0");
        assert_eq!(q.pop(), Some((t(5), "y")));
        assert_eq!(q.pop(), Some((t(5), "z")));
    }

    #[test]
    fn last_push_number_below_the_field_limit_is_accepted() {
        let mut q = EventQueue::with_seq((1 << SEQ_BITS) - 1);
        q.push(t(1), ());
        assert_eq!(q.pop(), Some((t(1), ())));
    }

    #[test]
    #[should_panic(expected = "event key field overflow")]
    fn push_number_past_the_field_limit_panics() {
        let mut q = EventQueue::with_seq((1 << SEQ_BITS) - 1);
        q.push(t(1), ());
        q.push(t(1), ());
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
