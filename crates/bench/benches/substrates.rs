//! Microbenchmarks of the substrates the testbed is built on.
//!
//! These guard the hot paths of the simulation: one simulated second of a
//! busy testbed dispatches millions of events, so regressions here
//! directly inflate every experiment's wall-clock time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn event_queue(c: &mut Criterion) {
    use es2_sim::{EventQueue, SimDuration, SimTime};
    c.bench_function("sim/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                // Pseudo-shuffled times exercise heap reordering.
                let t = SimTime::ZERO + SimDuration::from_nanos((i * 7919) % 10_000);
                q.push(t, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

fn rng(c: &mut Criterion) {
    use es2_sim::SimRng;
    c.bench_function("sim/rng_next_u64_1k", |b| {
        let mut r = SimRng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(r.next_u64());
            }
            black_box(acc)
        })
    });
}

fn virtqueue(c: &mut Criterion) {
    use es2_virtio::Virtqueue;
    c.bench_function("virtio/ring_round_trip_256", |b| {
        let mut q: Virtqueue<u64> = Virtqueue::new(256);
        b.iter(|| {
            for i in 0..256u64 {
                q.driver_add(i).unwrap();
            }
            while let Some(p) = q.device_pop() {
                q.device_push_used(p);
            }
            while q.driver_take_used().is_some() {}
            black_box(q.kick_count())
        })
    });
}

fn scheduler(c: &mut Criterion) {
    use es2_sched::{CfsScheduler, CoreId, SchedParams};
    use es2_sim::{SimDuration, SimTime};
    c.bench_function("sched/tick_4_threads_1k_ticks", |b| {
        b.iter(|| {
            let mut s = CfsScheduler::new(1, SchedParams::default());
            for _ in 0..4 {
                let t = s.add_thread(0, CoreId(0));
                s.wake(t, SimTime::ZERO);
            }
            for i in 1..=1000u64 {
                s.tick(CoreId(0), SimTime::ZERO + SimDuration::from_millis(i));
            }
            black_box(s.switch_count(CoreId(0)))
        })
    });
    // Run-queue traffic: the running thread blocks (pop the leftmost) and
    // is woken again (insert), at the queue depths perfbench measures at
    // an enqueue: 1 (the common case on every workload) and 128 (the
    // maximum, on `dense`).
    for queued in [1u32, 128] {
        let threads = queued + 1;
        c.bench_function(&format!("sched/wake_block_{threads}_threads_1k"), |b| {
            b.iter(|| {
                let mut s = CfsScheduler::new(1, SchedParams::default());
                for _ in 0..threads {
                    let t = s.add_thread(0, CoreId(0));
                    s.wake(t, SimTime::ZERO);
                }
                for i in 1..=1000u64 {
                    let now = SimTime::ZERO + SimDuration::from_micros(10 * i);
                    let cur = s.current(CoreId(0)).expect("a thread always runs");
                    s.block(cur, now);
                    s.wake(cur, now);
                }
                black_box(s.switch_count(CoreId(0)))
            })
        });
    }
}

fn apic(c: &mut Criterion) {
    use es2_apic::{PiDescriptor, VApicPage};
    c.bench_function("apic/pi_post_sync_deliver_256", |b| {
        b.iter(|| {
            let mut d = PiDescriptor::new();
            let mut v = VApicPage::new();
            d.set_suppress(false);
            let mut delivered = 0u32;
            for vec in 0x31u8..0xeb {
                d.post(vec);
                v.sync_from(&mut d);
                while v.ack().is_some() {
                    v.eoi();
                    delivered += 1;
                }
            }
            black_box(delivered)
        })
    });
}

fn redirection(c: &mut Criterion) {
    use es2_core::RedirectionEngine;
    c.bench_function("es2/redirect_select_target_1k", |b| {
        let mut e = RedirectionEngine::new(1, 4);
        e.sched_in(0, 1);
        e.sched_in(0, 3);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..1000 {
                acc = acc.wrapping_add(e.select_target(0, 0x41, 0));
            }
            black_box(acc)
        })
    });
}

fn hybrid(c: &mut Criterion) {
    use es2_core::{HybridHandler, HybridParams, PollDecision};
    use es2_virtio::Virtqueue;
    c.bench_function("es2/hybrid_poll_turns_256", |b| {
        b.iter(|| {
            let mut vq: Virtqueue<u32> = Virtqueue::new(256);
            let mut h = HybridHandler::new(HybridParams::with_quota(8));
            for i in 0..256 {
                vq.driver_add(i).unwrap();
            }
            let mut polled = 0u32;
            loop {
                h.begin_turn(&mut vq);
                loop {
                    match h.poll_next(&mut vq) {
                        PollDecision::Process(_) => polled += 1,
                        PollDecision::QuotaExhausted => break,
                        PollDecision::Drained => return black_box(polled),
                    }
                }
            }
        })
    });
}

criterion_group!(
    benches,
    event_queue,
    rng,
    virtqueue,
    scheduler,
    apic,
    redirection,
    hybrid
);
criterion_main!(benches);
