//! Event-queue micro-benchmarks at the simulator's measured traffic.
//!
//! `EventQueue` (a heap of 24-byte keys over a payload slab) against a
//! `BinaryHeap` of inline entries carrying the same 40-byte payload — the
//! layout that moves whole events through every sift. Deltas are uniform
//! over `[0, 2·depth)` µs, so a queue holding `depth` events holds ~1
//! event per µs of simulated time, as the machine loop's queue does.
//!
//! * **churn** — prefill to `depth`, then one pop + one push per
//!   iteration (the machine loop's pattern), at depths 12, 21 and 310:
//!   the mean pending depths measured on perfbench's `cell`, `sweep` and
//!   `dense` workloads;
//! * **merge4** — four queues at depth 12; each step peeks all four, pops
//!   the earliest and pushes a follow-up into the same queue (the
//!   pattern of `es2_sim::lane::run_lanes` on the 4-host cell).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use es2_sim::{EventQueue, SimDuration, SimRng, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const DEPTHS: [usize; 3] = [12, 21, 310];
const ITERS: u64 = 10_000;

/// Stand-in for the testbed's 40-byte `Ev`.
type Payload = [u64; 5];

/// The operations the benchmark loops need from either queue.
trait Queue: Default {
    fn push(&mut self, at: SimTime, ev: Payload);
    fn pop(&mut self) -> Option<(SimTime, Payload)>;
    fn peek_time(&self) -> Option<SimTime>;
}

impl Queue for EventQueue<Payload> {
    fn push(&mut self, at: SimTime, ev: Payload) {
        EventQueue::push(self, at, ev)
    }
    fn pop(&mut self) -> Option<(SimTime, Payload)> {
        EventQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
}

/// A 56-byte heap entry: key and payload inline.
struct Inline {
    at: SimTime,
    seq: u64,
    ev: Payload,
}

impl Inline {
    /// The same single 128-bit `(at, seq)` comparison `EventQueue` uses,
    /// so the two queues differ only in layout.
    fn rank(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Inline {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for Inline {}
impl PartialOrd for Inline {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Inline {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

/// The rejected layout: a `BinaryHeap` of inline entries.
#[derive(Default)]
struct InlineHeap {
    heap: BinaryHeap<Inline>,
    seq: u64,
}

impl Queue for InlineHeap {
    fn push(&mut self, at: SimTime, ev: Payload) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Inline { at, seq, ev });
    }
    fn pop(&mut self) -> Option<(SimTime, Payload)> {
        self.heap.pop().map(|e| (e.at, e.ev))
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

/// Next delta for a queue of `depth` pending events at ~1 event per µs.
fn delta(rng: &mut SimRng, depth: usize) -> SimDuration {
    SimDuration::from_nanos(rng.gen_range(2_000 * depth as u64))
}

fn payload(i: u64) -> Payload {
    [i, i ^ 1, i ^ 2, i ^ 3, i ^ 4]
}

/// Prefill to `depth`, then `ITERS` rounds of pop + push.
fn churn<Q: Queue>(depth: usize) -> u64 {
    let mut rng = SimRng::new(7);
    let mut q = Q::default();
    for i in 0..depth as u64 {
        q.push(SimTime::ZERO + delta(&mut rng, depth), payload(i));
    }
    let mut acc = 0u64;
    for i in 0..ITERS {
        let (now, ev) = q.pop().expect("queue stays at depth");
        acc = acc.wrapping_add(ev[0]);
        q.push(now + delta(&mut rng, depth), payload(i));
    }
    acc
}

/// Four queues at `depth`; each round peeks all four, pops the earliest
/// (lowest index on ties) and pushes its follow-up back into that queue.
fn merge4<Q: Queue>(depth: usize) -> u64 {
    let mut rng = SimRng::new(7);
    let mut qs: [Q; 4] = Default::default();
    for (k, q) in qs.iter_mut().enumerate() {
        for i in 0..depth as u64 {
            q.push(SimTime::ZERO + delta(&mut rng, depth), payload(i + k as u64));
        }
    }
    let mut acc = 0u64;
    for i in 0..ITERS {
        let (k, _) = qs
            .iter()
            .enumerate()
            .filter_map(|(k, q)| q.peek_time().map(|t| (k, t)))
            .min_by_key(|&(k, t)| (t, k))
            .expect("queues stay at depth");
        let (now, ev) = qs[k].pop().expect("peeked");
        acc = acc.wrapping_add(ev[0]);
        qs[k].push(now + delta(&mut rng, depth), payload(i));
    }
    acc
}

fn churn_depths(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/churn");
    g.sample_size(10);
    for depth in DEPTHS {
        g.bench_function(&format!("slab_keys/depth={depth}"), |b| {
            b.iter(|| black_box(churn::<EventQueue<Payload>>(depth)))
        });
        g.bench_function(&format!("inline_heap/depth={depth}"), |b| {
            b.iter(|| black_box(churn::<InlineHeap>(depth)))
        });
    }
    g.finish();
}

fn merge_four(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/merge4");
    g.sample_size(10);
    g.bench_function("slab_keys/depth=12", |b| {
        b.iter(|| black_box(merge4::<EventQueue<Payload>>(12)))
    });
    g.bench_function("inline_heap/depth=12", |b| {
        b.iter(|| black_box(merge4::<InlineHeap>(12)))
    });
    g.finish();
}

criterion_group!(benches, churn_depths, merge_four);
criterion_main!(benches);
