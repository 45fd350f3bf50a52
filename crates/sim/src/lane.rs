//! Serial lane executor for partitioned simulations.
//!
//! A simulation can be partitioned into **lanes** — shards that each
//! own their own event queue and RNG streams, such as the hosts of a
//! multi-host cell. Lanes interact only through timestamped
//! **cross-lane messages**; [`run_lanes`] drives every lane in one
//! global min-merge loop, so a partitioned run is a single seeded event
//! loop. Parallelism lives one level up, across independent runs in
//! [`exec::sweep`](crate::exec::sweep).
//!
//! # Lookahead
//!
//! Each lane declares a **lookahead** `L`: a lower bound on the delta
//! between its current clock and the timestamp of any message it emits
//! (derived from modeled wire latency by the testbed — a packet leaving
//! lane *i* at time `t` cannot arrive at lane *j* before `t + L`).
//! [`Outbox::send`] asserts it on every message: a positive lookahead
//! is what keeps a message from landing in its receiver's past, and it
//! stays a checked property of the model rather than a comment.
//!
//! # Determinism
//!
//! * Each lane's next step is the composite minimum of (local events,
//!   staged arrivals), with local events winning time ties and staged
//!   arrivals ordered by `(time, sender, sender_seq)` — the same
//!   `(time, seq)` FIFO contract [`EventQueue`] uses.
//! * Across lanes, the loop picks the minimum `(time, class, lane)`
//!   step, so the schedule is a pure function of the simulation.
//!
//! [`EventQueue`]: crate::EventQueue

use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// One shard of a partitioned simulation, driven by the lane executor.
///
/// Implementations own their shard's full state (event queue, RNG
/// streams, world state). The executor never inspects that state; it
/// only asks for the next event time, tells the lane to take one step,
/// and routes cross-lane messages.
pub trait LaneSim {
    /// A timestamped event crossing from this lane to another.
    type Msg;

    /// Time of the lane's next *local* event (`None` once drained).
    /// Staged cross-lane arrivals are tracked by the executor and do not
    /// count; a drained lane revives when a message is delivered to it.
    fn next_time(&self) -> Option<SimTime>;

    /// Minimum delta between the lane's clock and the timestamp of any
    /// message it emits. Must be positive, so every message lands
    /// strictly after the step that sends it.
    fn lookahead(&self) -> SimDuration;

    /// Process exactly one local event — the one whose time
    /// [`next_time`](Self::next_time) last reported. Cross-lane messages
    /// are emitted through `outbox`; their timestamps must be at least
    /// the event time plus [`lookahead`](Self::lookahead).
    fn step(&mut self, outbox: &mut Outbox<Self::Msg>);

    /// Accept one cross-lane message with timestamp `at`. Typically the
    /// lane schedules a local event at `at`; the executor guarantees
    /// `at` is not in the lane's past and that every message with a
    /// given timestamp is delivered before the lane reaches it.
    fn receive(&mut self, at: SimTime, msg: Self::Msg);
}

/// Collects the cross-lane messages one step emits.
pub struct Outbox<M> {
    from: usize,
    now: SimTime,
    lookahead: SimDuration,
    msgs: Vec<(usize, SimTime, M)>,
}

impl<M> Outbox<M> {
    /// Emit a message to lane `dest` arriving at `at`.
    ///
    /// Panics if the lane declared a zero lookahead, if `at` violates
    /// the declared lookahead, or on a self-send (local events don't
    /// need the mailbox).
    pub fn send(&mut self, dest: usize, at: SimTime, msg: M) {
        let la = self.lookahead;
        assert!(!la.is_zero(), "cross-lane message from a lane with zero lookahead");
        assert!(
            at >= self.now + la,
            "cross-lane message violates lookahead: event at {:?}, message at {:?}, lookahead {:?}",
            self.now,
            at,
            la
        );
        assert_ne!(dest, self.from, "self-send through the cross-lane mailbox");
        self.msgs.push((dest, at, msg));
    }
}

/// A staged cross-lane arrival, ordered by `(at, src, seq)` — the
/// deterministic tie-break that makes delivery order a pure function of
/// the simulation.
struct Inbound<M> {
    at: SimTime,
    src: u32,
    seq: u64,
    msg: M,
}

impl<M> Inbound<M> {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.src, self.seq)
    }
}

impl<M> PartialEq for Inbound<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Inbound<M> {}
impl<M> PartialOrd for Inbound<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Inbound<M> {
    /// Inverted: `BinaryHeap` is a max-heap, we want the earliest first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// Local events win time ties against staged arrivals (class 0 vs 1):
/// an arrival at `t` is only processed once the lane has no local work
/// left at `t`, mirroring how a same-instant push would sort behind
/// already-queued events under the `(time, seq)` contract.
const CLASS_LOCAL: u8 = 0;
const CLASS_INBOUND: u8 = 1;

/// Executor-side state for one lane: the shard itself plus its staging
/// queue and send counter.
struct Slot<'a, L: LaneSim> {
    sim: &'a mut L,
    staging: BinaryHeap<Inbound<L::Msg>>,
    /// Messages this lane has emitted (assigns `seq` in emission order).
    sent: u64,
}

impl<'a, L: LaneSim> Slot<'a, L> {
    /// The lane's next composite step: earliest of local events and
    /// staged arrivals, with the class tie-break above.
    fn next_key(&self) -> Option<(SimTime, u8)> {
        let local = self.sim.next_time().map(|t| (t, CLASS_LOCAL));
        let inbound = self.staging.peek().map(|i| (i.at, CLASS_INBOUND));
        match (local, inbound) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Execute the composite step `next_key` reported, collecting any
    /// emitted messages into `out` as `(dest, inbound)` pairs.
    fn step_once(&mut self, idx: usize, key: (SimTime, u8), out: &mut Vec<(usize, Inbound<L::Msg>)>) {
        if key.1 == CLASS_INBOUND {
            let i = self.staging.pop().expect("inbound key implies staged msg");
            self.sim.receive(i.at, i.msg);
            return;
        }
        let mut outbox = Outbox {
            from: idx,
            now: key.0,
            lookahead: self.sim.lookahead(),
            msgs: Vec::new(),
        };
        self.sim.step(&mut outbox);
        if outbox.msgs.is_empty() {
            return;
        }
        for (dest, at, msg) in outbox.msgs {
            let seq = self.sent;
            self.sent += 1;
            out.push((
                dest,
                Inbound {
                    at,
                    src: idx as u32,
                    seq,
                    msg,
                },
            ));
        }
    }
}

/// Run every lane to completion: one global merge loop picking the
/// minimum `(time, class, lane)` composite step across all lanes,
/// delivering emitted messages into the receivers' staging queues
/// immediately.
pub fn run_lanes<L: LaneSim>(lanes: &mut [L]) {
    let mut slots: Vec<Slot<L>> = lanes
        .iter_mut()
        .map(|sim| Slot {
            sim,
            staging: BinaryHeap::new(),
            sent: 0,
        })
        .collect();
    let mut routed: Vec<(usize, Inbound<L::Msg>)> = Vec::new();
    loop {
        // Minimum composite step across lanes; lane index breaks ties
        // (any fixed rule works — it only orders causally independent
        // steps).
        let mut best: Option<(SimTime, u8, usize)> = None;
        for (i, s) in slots.iter().enumerate() {
            if let Some((t, c)) = s.next_key() {
                let key = (t, c, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((t, c, i)) = best else { break };
        slots[i].step_once(i, (t, c), &mut routed);
        if !routed.is_empty() {
            for (dest, inbound) in routed.drain(..) {
                slots[dest].staging.push(inbound);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lane that revives after draining: lane 1 has no local events at
    /// all and only acts when lane 0's messages arrive.
    struct EchoLane {
        idx: usize,
        q: crate::EventQueue<u64>,
        remaining: u32,
        log: Vec<(u64, u64)>,
    }

    impl LaneSim for EchoLane {
        type Msg = u64;
        fn next_time(&self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn lookahead(&self) -> SimDuration {
            SimDuration::from_micros(1)
        }
        fn step(&mut self, outbox: &mut Outbox<u64>) {
            let (t, v) = self.q.pop().unwrap();
            self.log.push((t.as_nanos(), v));
            if self.remaining > 0 {
                self.remaining -= 1;
                outbox.send(1 - self.idx, t + SimDuration::from_micros(1), v + 1);
            }
        }
        fn receive(&mut self, at: SimTime, msg: u64) {
            self.q.push(at, msg);
        }
    }

    #[test]
    fn drained_lane_revives_on_message() {
        let mut a = crate::EventQueue::new();
        a.push(SimTime::from_nanos(100), 0);
        let mut lanes = vec![
            EchoLane {
                idx: 0,
                q: a,
                remaining: 10,
                log: Vec::new(),
            },
            EchoLane {
                idx: 1,
                q: crate::EventQueue::new(),
                remaining: 10,
                log: Vec::new(),
            },
        ];
        run_lanes(&mut lanes);
        // The ball bounced until both lanes ran out of sends: lane 0
        // holds the even hops, lane 1 (drained from the start) the odd
        // ones, each one lookahead after the last.
        let hop = |k: u64| (100 + 1_000 * k, k);
        assert_eq!(lanes[0].log, (0..=20).step_by(2).map(hop).collect::<Vec<_>>());
        assert_eq!(lanes[1].log, (1..20).step_by(2).map(hop).collect::<Vec<_>>());
    }
}
