//! A serializing point-to-point link.
//!
//! Models the back-to-back 40 GbE cable: each transmitted frame occupies the
//! link for its serialization time (`bytes * 8 / bandwidth`), frames queue
//! FIFO behind one another, and arrival at the far end adds a fixed
//! propagation delay. At 40 Gb/s a 1500-byte frame serializes in 300 ns, so
//! the link is never the bottleneck in these experiments — exactly as in the
//! paper, where the event path is.

use es2_sim::{PacketFault, SimDuration, SimTime};

/// Where a faulted transmit leaves the frame: zero, one, or two arrival
/// times at the far end. The link's serialization/FIFO state advances
/// identically in every case — a dropped frame still occupied the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultedArrival {
    /// Frame lost in flight; nothing arrives.
    Dropped,
    /// Normal (or delayed/reordered) single arrival.
    One(SimTime),
    /// Duplicated in flight: two arrivals of the same frame.
    Two(SimTime, SimTime),
}

/// One direction of a point-to-point link.
#[derive(Clone, Debug)]
pub struct Link {
    bits_per_sec: u64,
    propagation: SimDuration,
    /// When the transmitter becomes free.
    next_free: SimTime,
}

impl Link {
    /// A link with the given bandwidth and propagation delay.
    pub(crate) fn new(bits_per_sec: u64, propagation: SimDuration) -> Self {
        assert!(bits_per_sec > 0);
        Link {
            bits_per_sec,
            propagation,
            next_free: SimTime::ZERO,
        }
    }

    /// A 40 GbE link with 1 µs propagation (back-to-back DAC cable + PHY).
    pub fn forty_gbe() -> Self {
        Link::new(40_000_000_000, SimDuration::from_micros(1))
    }

    /// Serialization time for a frame of `bytes`.
    pub(crate) fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::from_nanos(
            (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bits_per_sec,
        )
    }

    /// Transmit a frame at `now`; returns its arrival time at the far end.
    ///
    /// If the transmitter is busy the frame queues behind earlier ones.
    pub(crate) fn transmit(&mut self, now: SimTime, bytes: u32) -> SimTime {
        let start = if self.next_free > now {
            self.next_free
        } else {
            now
        };
        let done = start + self.serialization(bytes);
        self.next_free = done;
        done + self.propagation
    }

    /// Transmit a frame subject to an injected fault decision.
    ///
    /// With [`PacketFault::Deliver`] this is exactly `Link::transmit`.
    /// Faults act on the *flight*, not the transmitter: serialization and
    /// FIFO occupancy are charged identically in all cases, so enabling
    /// fault hooks does not perturb the timing of unaffected frames.
    pub fn transmit_faulted(
        &mut self,
        now: SimTime,
        bytes: u32,
        fault: PacketFault,
    ) -> FaultedArrival {
        let arrival = self.transmit(now, bytes);
        match fault {
            PacketFault::Deliver => FaultedArrival::One(arrival),
            PacketFault::Drop => FaultedArrival::Dropped,
            // The copy trails the original by one serialization slot.
            PacketFault::Duplicate => {
                FaultedArrival::Two(arrival, arrival + self.serialization(bytes))
            }
            PacketFault::Delay(extra) => FaultedArrival::One(arrival + extra),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn serialization_time_40gbe() {
        let l = Link::forty_gbe();
        // 1500 B = 12000 bits at 40Gbps = 300 ns.
        assert_eq!(l.serialization(1500), SimDuration::from_nanos(300));
    }

    #[test]
    fn idle_link_delivers_after_serialization_plus_propagation() {
        let mut l = Link::forty_gbe();
        let arrive = l.transmit(t(0), 1500);
        assert_eq!(arrive, t(300 + 1000));
    }

    #[test]
    fn busy_link_queues_fifo() {
        let mut l = Link::forty_gbe();
        let a = l.transmit(t(0), 1500);
        let b = l.transmit(t(0), 1500);
        assert_eq!(
            b.since(a),
            SimDuration::from_nanos(300),
            "b serializes after a"
        );
        assert_eq!(l.next_free, t(600), "the wire is busy until both are out");
    }

    #[test]
    fn link_goes_idle_between_sparse_frames() {
        let mut l = Link::forty_gbe();
        l.transmit(t(0), 1500);
        let late = l.transmit(t(10_000), 1500);
        assert_eq!(late, t(10_000 + 300 + 1000));
    }

    #[test]
    fn counters_and_throughput() {
        let mut l = Link::forty_gbe();
        let last = (0..1000).map(|_| l.transmit(t(0), 1250)).last();
        // 1.25 MB back to back at 40 Gb/s keeps the wire busy 250 µs; the
        // last frame lands one propagation delay later.
        assert_eq!(last, Some(t(250_000 + 1000)));
    }

    #[test]
    fn faulted_transmit_clean_path_matches_transmit() {
        let mut a = Link::forty_gbe();
        let mut b = Link::forty_gbe();
        for i in 0..20 {
            let plain = a.transmit(t(i * 100), 1500);
            let faulted = b.transmit_faulted(t(i * 100), 1500, PacketFault::Deliver);
            assert_eq!(faulted, FaultedArrival::One(plain));
        }
    }

    #[test]
    fn faults_charge_the_wire_but_change_arrivals() {
        let mut l = Link::forty_gbe();
        assert_eq!(
            l.transmit_faulted(t(0), 1500, PacketFault::Drop),
            FaultedArrival::Dropped
        );
        // The dropped frame still serialized: the next frame queues.
        let next = l.transmit(t(0), 1500);
        assert_eq!(next, t(600 + 1000));
        match l.transmit_faulted(t(10_000), 1500, PacketFault::Duplicate) {
            FaultedArrival::Two(first, second) => {
                assert_eq!(second.since(first), SimDuration::from_nanos(300));
            }
            other => panic!("expected duplicate, got {other:?}"),
        }
        let delayed =
            l.transmit_faulted(t(20_000), 1500, PacketFault::Delay(SimDuration::from_micros(5)));
        assert_eq!(delayed, FaultedArrival::One(t(20_000 + 300 + 1000 + 5_000)));
    }

    #[test]
    fn arrival_order_matches_send_order() {
        let mut l = Link::forty_gbe();
        let mut prev = SimTime::ZERO;
        for i in 0..50 {
            let a = l.transmit(t(i * 10), 64 + i as u32);
            assert!(a > prev, "FIFO arrival order");
            prev = a;
        }
    }
}
