//! Vhost-pool sharding micro-benchmarks: dispatch throughput versus
//! worker count under three kick distributions.
//!
//! The pool is exercised bare — no simulation, no rings — so the
//! measured cost is queue_work/next_work bookkeeping alone (the shared
//! dispatch hop the passthrough policy exists to skip):
//!
//! * **isolated** — each pair kicks in its own burst, drained before the
//!   next pair kicks: no cross-pair interleaving, the sharding floor;
//! * **shared** — kicks round-robin across every pair before any drain:
//!   maximum interleaving through the per-worker FIFOs;
//! * **hot-queue** — 90% of kicks hammer pair 0: the skewed case where
//!   per-vCPU affine sharding degenerates to a single hot worker.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use es2_virtio::{ShardPolicy, VhostPool};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const PAIRS: u32 = 8;
const VCPUS: u32 = 4;
/// Total kicks per iteration, constant across rows so throughput
/// numbers compare equal work.
const KICKS: u64 = 32_000;

fn build(workers: usize, policy: ShardPolicy) -> (VhostPool, Vec<es2_virtio::HandlerId>) {
    let mut pool = VhostPool::new(workers, policy);
    let mut handlers = Vec::with_capacity(2 * PAIRS as usize);
    for q in 0..PAIRS {
        let (tx, rx) = pool.register_pair(q, q % VCPUS);
        handlers.push(tx);
        handlers.push(rx);
    }
    (pool, handlers)
}

/// Drain every worker completely, counting dispatches.
fn drain(pool: &mut VhostPool) -> u64 {
    let mut served = 0;
    for w in 0..pool.num_workers() {
        while let Some(h) = pool.next_work(w) {
            served += h.idx() as u64 + 1;
        }
    }
    served
}

/// Kick `seq` in order, draining after every `burst` kicks (a burst
/// models the work one worker wakeup batch would serve).
fn run(pool: &mut VhostPool, seq: &[es2_virtio::HandlerId], burst: usize) -> u64 {
    let mut acc: u64 = 0;
    for chunk in seq.chunks(burst) {
        for &h in chunk {
            let (w, _) = pool.queue_work(h);
            acc = acc.wrapping_add(w as u64);
        }
        acc = acc.wrapping_add(drain(pool));
    }
    acc
}

/// Isolated: pair-major kick order (each pair's kicks contiguous).
fn isolated_seq(handlers: &[es2_virtio::HandlerId]) -> Vec<es2_virtio::HandlerId> {
    let per = KICKS as usize / handlers.len();
    let mut seq = Vec::with_capacity(per * handlers.len());
    for &h in handlers {
        seq.extend(std::iter::repeat_n(h, per));
    }
    seq
}

/// Shared: round-robin across every handler.
fn shared_seq(handlers: &[es2_virtio::HandlerId]) -> Vec<es2_virtio::HandlerId> {
    (0..KICKS as usize)
        .map(|i| handlers[i % handlers.len()])
        .collect()
}

/// Hot-queue: 90% of kicks on pair 0's TX handler, the rest spread.
fn hot_seq(handlers: &[es2_virtio::HandlerId]) -> Vec<es2_virtio::HandlerId> {
    (0..KICKS as usize)
        .map(|i| {
            if i % 10 < 9 {
                handlers[0]
            } else {
                handlers[i % handlers.len()]
            }
        })
        .collect()
}

fn bench_mix(
    c: &mut Criterion,
    mix: &str,
    seq_of: fn(&[es2_virtio::HandlerId]) -> Vec<es2_virtio::HandlerId>,
) {
    let mut g = c.benchmark_group(&format!("vhost_shard/{mix}"));
    g.sample_size(10);
    for workers in WORKER_COUNTS {
        for policy in [ShardPolicy::Affine, ShardPolicy::Passthrough] {
            // Passthrough needs one worker per pair to mean anything;
            // the pool clamps identically, so skip redundant rows.
            if policy == ShardPolicy::Passthrough && workers < PAIRS as usize {
                continue;
            }
            let (pool0, handlers) = build(workers, policy);
            let seq = seq_of(&handlers);
            g.bench_function(&format!("{}/workers={workers}", policy.label()), |b| {
                b.iter(|| {
                    let mut pool = pool0.clone();
                    black_box(run(&mut pool, &seq, 64))
                })
            });
        }
        // The legacy mux is always a single logical dispatch queue.
        if workers == 1 {
            let (pool0, handlers) = build(1, ShardPolicy::Mux);
            let seq = seq_of(&handlers);
            g.bench_function("mux/workers=1", |b| {
                b.iter(|| {
                    let mut pool = pool0.clone();
                    black_box(run(&mut pool, &seq, 64))
                })
            });
        }
    }
    g.finish();
}

fn isolated(c: &mut Criterion) {
    bench_mix(c, "isolated", isolated_seq);
}

fn shared(c: &mut Criterion) {
    bench_mix(c, "shared", shared_seq);
}

fn hot_queue(c: &mut Criterion) {
    bench_mix(c, "hot-queue", hot_seq);
}

criterion_group!(benches, isolated, shared, hot_queue);
criterion_main!(benches);
