//! Bounded NIC / device queues with tail-drop.
//!
//! Between the wire and the vhost backend sits a bounded queue (the real
//! system's NIC ring + host network stack backlog). When the guest cannot
//! drain its receive path fast enough — the receive-side experiments of
//! Fig. 6b — this queue fills and tail-drops, which is precisely where lost
//! UDP throughput and TCP window stalls come from.

use std::collections::VecDeque;

use crate::packet::Packet;

/// RSS-style receive spreading: pick the RX queue for an arriving packet
/// on a multi-queue device, from a hash of the flow identity and the
/// packet's monotone id. Each simulated flow stands in for a whole
/// aggregate of real 5-tuples, so the packet id participates in the hash
/// the way distinct connection tuples would under real Toeplitz RSS —
/// packets of one simulated flow spread across the device's queues
/// deterministically. With `queues == 1` every packet lands on queue 0
/// (the legacy single-queue device, byte-identical behavior).
pub fn rss_queue(flow: u32, pkt_id: u64, queues: u32) -> u32 {
    if queues <= 1 {
        return 0;
    }
    let x = (((flow as u64) << 32) ^ pkt_id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((x >> 33) % queues as u64) as u32
}

/// A bounded FIFO packet queue with drop accounting.
#[derive(Clone, Debug)]
pub struct NicQueue {
    /// Queued packets. Storage grows with occupancy; `capacity` is the
    /// drop bound, not a preallocation.
    q: VecDeque<Packet>,
    capacity: usize,
    dropped: u64,
}

impl NicQueue {
    /// A queue holding at most `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        NicQueue {
            q: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Enqueue; returns `false` (and counts a drop) if full.
    pub fn push(&mut self, p: Packet) -> bool {
        if self.q.len() >= self.capacity {
            self.dropped += 1;
            false
        } else {
            self.q.push_back(p);
            true
        }
    }

    /// Dequeue the oldest packet.
    pub fn pop(&mut self) -> Option<Packet> {
        self.q.pop_front()
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Lifetime tail-drops.
    pub fn dropped_total(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketFactory, PacketKind};
    use es2_sim::SimTime;

    fn pkt(f: &mut PacketFactory) -> Packet {
        f.make(FlowId(0), PacketKind::Data, 100, SimTime::ZERO)
    }

    #[test]
    fn fifo_order() {
        let mut f = PacketFactory::new();
        let mut q = NicQueue::new(4);
        let a = pkt(&mut f);
        let b = pkt(&mut f);
        q.push(a);
        q.push(b);
        assert_eq!(q.pop().unwrap().id, a.id);
        assert_eq!(q.pop().unwrap().id, b.id);
        assert!(q.pop().is_none());
    }

    #[test]
    fn tail_drop_when_full() {
        let mut f = PacketFactory::new();
        let mut q = NicQueue::new(2);
        assert!(q.push(pkt(&mut f)));
        assert!(q.push(pkt(&mut f)));
        assert!(!q.push(pkt(&mut f)));
        assert_eq!(q.dropped_total(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn push_past_capacity_drops_exactly_one() {
        // Storage grows with occupancy; `capacity` alone is the bound.
        let mut f = PacketFactory::new();
        let capacity = 512;
        let mut q = NicQueue::new(capacity);
        for _ in 0..capacity {
            assert!(q.push(pkt(&mut f)));
        }
        let last = pkt(&mut f);
        assert!(!q.push(last));
        assert_eq!(q.len(), capacity);
        assert_eq!(q.dropped_total(), 1);
        assert!(
            q.pop().unwrap().id < last.id,
            "the dropped packet is the new one"
        );
    }

    #[test]
    fn drain_reopens_capacity() {
        let mut f = PacketFactory::new();
        let mut q = NicQueue::new(1);
        q.push(pkt(&mut f));
        assert!(!q.push(pkt(&mut f)));
        q.pop();
        assert!(q.push(pkt(&mut f)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_drop_fraction_is_zero() {
        let q = NicQueue::new(1);
        assert_eq!(q.dropped_total(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn rss_single_queue_is_always_zero() {
        for id in 0..64 {
            assert_eq!(rss_queue(3, id, 1), 0);
        }
    }

    #[test]
    fn rss_spreads_and_is_deterministic() {
        let queues = 4;
        let mut hit = vec![0u32; queues as usize];
        for id in 0..256u64 {
            let q = rss_queue(7, id, queues);
            assert!(q < queues);
            assert_eq!(q, rss_queue(7, id, queues), "stable per packet");
            hit[q as usize] += 1;
        }
        for (q, &n) in hit.iter().enumerate() {
            assert!(n > 0, "queue {q} never chosen over 256 packets");
        }
    }
}
