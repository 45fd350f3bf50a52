//! Event-queue micro-benchmarks at the simulator's measured traffic.
//!
//! `EventQueue` (an 8-key sorted front ahead of a heap of packed `u128`
//! keys over a payload slab) against `KeyHeap`, the plain heap of the
//! same keys it replaced. Each push lands 1–16 µs after `now` with the
//! workload's near share and 0.25–4 ms after it otherwise (timer
//! re-arms), the mix recorded on perfbench's workloads:
//!
//! | traffic | mean depth | near share |
//! |---------|-----------:|-----------:|
//! | `cell`  | 12         | 95 %       |
//! | `sweep` | 21         | 87 %       |
//! | `dense` | 310        | 60 %       |
//!
//! * **churn** — prefill to the depth, then one pop + one push per
//!   iteration (the machine loop's pattern);
//! * **merge4** — four queues at `cell` traffic; each step peeks all
//!   four, pops the earliest and pushes a follow-up into the same queue
//!   (the multi-host merge of the 4-host cell).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use es2_sim::{EventQueue, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(workload, mean pending depth, % of pushes 1–16 µs ahead)`.
const TRAFFIC: [(&str, usize, u64); 3] = [("cell", 12, 95), ("sweep", 21, 87), ("dense", 310, 60)];
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

/// The replaced layout: every key, however near, sifts through one
/// `BinaryHeap`. Keys pack `(at, seq, slot)` as `EventQueue`'s do.
#[derive(Default)]
struct KeyHeap {
    heap: BinaryHeap<Reverse<u128>>,
    slab: Vec<Option<Payload>>,
    free: Vec<u32>,
    seq: u64,
}

impl Queue for KeyHeap {
    fn push(&mut self, at: SimTime, ev: Payload) {
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
        let key = (u128::from(at.as_nanos()) << 64) | u128::from(self.seq << 24) | u128::from(slot);
        self.seq += 1;
        self.heap.push(Reverse(key));
    }
    fn pop(&mut self) -> Option<(SimTime, Payload)> {
        let Reverse(key) = self.heap.pop()?;
        let slot = key as u32 & 0xff_ffff;
        let ev = self.slab[slot as usize]
            .take()
            .expect("a queued key owns its slot");
        self.free.push(slot);
        Some((SimTime::from_nanos((key >> 64) as u64), ev))
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|&Reverse(k)| SimTime::from_nanos((k >> 64) as u64))
    }
}

/// Next push delta: 1–16 µs with probability `near_pct` %, else 0.25–4 ms.
fn delta(rng: &mut SimRng, near_pct: u64) -> SimDuration {
    SimDuration::from_nanos(if rng.gen_range(100) < near_pct {
        1_000 + rng.gen_range(15_000)
    } else {
        250_000 + rng.gen_range(3_750_000)
    })
}

fn payload(i: u64) -> Payload {
    [i, i ^ 1, i ^ 2, i ^ 3, i ^ 4]
}

/// Prefill to `depth`, then `ITERS` rounds of pop + push.
fn churn<Q: Queue>(depth: usize, near_pct: u64) -> u64 {
    let mut rng = SimRng::new(7);
    let mut q = Q::default();
    for i in 0..depth as u64 {
        q.push(SimTime::ZERO + delta(&mut rng, near_pct), payload(i));
    }
    let mut acc = 0u64;
    for i in 0..ITERS {
        let (now, ev) = q.pop().expect("queue stays at depth");
        acc = acc.wrapping_add(ev[0]);
        q.push(now + delta(&mut rng, near_pct), payload(i));
    }
    acc
}

/// Four queues at `depth`; each round peeks all four, pops the earliest
/// (lowest index on ties) and pushes its follow-up back into that queue.
fn merge4<Q: Queue>(depth: usize, near_pct: u64) -> u64 {
    let mut rng = SimRng::new(7);
    let mut qs: [Q; 4] = Default::default();
    for (k, q) in qs.iter_mut().enumerate() {
        for i in 0..depth as u64 {
            q.push(
                SimTime::ZERO + delta(&mut rng, near_pct),
                payload(i + k as u64),
            );
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
        qs[k].push(now + delta(&mut rng, near_pct), payload(i));
    }
    acc
}

fn churn_traffic(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/churn");
    g.sample_size(10);
    for (name, depth, near_pct) in TRAFFIC {
        g.bench_function(&format!("front_heap/{name}"), |b| {
            b.iter(|| black_box(churn::<EventQueue<Payload>>(depth, near_pct)))
        });
        g.bench_function(&format!("key_heap/{name}"), |b| {
            b.iter(|| black_box(churn::<KeyHeap>(depth, near_pct)))
        });
    }
    g.finish();
}

fn merge_four(c: &mut Criterion) {
    let (_, depth, near_pct) = TRAFFIC[0];
    let mut g = c.benchmark_group("event_queue/merge4");
    g.sample_size(10);
    g.bench_function("front_heap/cell", |b| {
        b.iter(|| black_box(merge4::<EventQueue<Payload>>(depth, near_pct)))
    });
    g.bench_function("key_heap/cell", |b| {
        b.iter(|| black_box(merge4::<KeyHeap>(depth, near_pct)))
    });
    g.finish();
}

criterion_group!(benches, churn_traffic, merge_four);
criterion_main!(benches);
