//! Packets and flows.

use es2_sim::SimTime;

/// Identifier of a transport flow (one netperf/application stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// The role a packet plays in its flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Bulk payload segment (netperf stream data, HTTP response body).
    Data,
    /// TCP acknowledgment.
    Ack,
    /// TCP connection setup.
    Syn,
    /// TCP connection setup reply.
    SynAck,
    /// ICMP echo request (ping).
    EchoRequest,
    /// ICMP echo reply.
    EchoReply,
    /// Application request (memcached get/set, HTTP GET).
    Request,
    /// Application response.
    Response,
}

/// A simulated frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Monotone id for tracing.
    pub id: u64,
    /// Owning flow.
    pub flow: FlowId,
    /// Packet role.
    pub kind: PacketKind,
    /// On-wire size in bytes (payload + headers).
    pub bytes: u32,
    /// When the packet was created (latency measurement origin).
    pub created_at: SimTime,
    /// Opaque per-protocol tag: ACK coverage (segments), ping sequence,
    /// request kind, connection id — interpreted by the endpoints.
    pub meta: u32,
}

/// Ethernet + IP + TCP header overhead used when segmenting payloads.
pub const HEADER_BYTES: u32 = 66;
/// Default MTU (the paper: "The Maximum Transmission Unit (MTU) is set to
/// its default size of 1500 bytes").
pub(crate) const MTU: u32 = 1500;
/// Maximum TCP segment payload under the default MTU.
pub const MSS: u32 = MTU - 40;

/// Number of MSS-sized segments needed to carry `payload` bytes.
pub fn segments_for(payload: u32) -> u32 {
    payload.div_ceil(MSS).max(1)
}

/// Factory stamping monotone packet ids.
#[derive(Clone, Debug, Default)]
pub struct PacketFactory {
    next_id: u64,
}

impl PacketFactory {
    /// A factory starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a packet with `meta` 0.
    pub fn make(
        &mut self,
        flow: FlowId,
        kind: PacketKind,
        payload_bytes: u32,
        now: SimTime,
    ) -> Packet {
        self.make_meta(flow, kind, payload_bytes, now, 0)
    }

    /// Create a packet carrying an explicit `meta` tag.
    pub fn make_meta(
        &mut self,
        flow: FlowId,
        kind: PacketKind,
        payload_bytes: u32,
        now: SimTime,
        meta: u32,
    ) -> Packet {
        let id = self.next_id;
        self.next_id += 1;
        Packet {
            id,
            flow,
            kind,
            bytes: payload_bytes + HEADER_BYTES,
            created_at: now,
            meta,
        }
    }

    /// Draw `n` ids without making their packets: the next `make` returns
    /// what it would after `n` discarded `make` calls.
    pub fn skip(&mut self, n: u64) {
        self.next_id += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotone() {
        let mut f = PacketFactory::new();
        let a = f.make(FlowId(0), PacketKind::Data, 100, SimTime::ZERO);
        let b = f.make(FlowId(0), PacketKind::Ack, 0, SimTime::ZERO);
        assert!(b.id > a.id);
    }

    #[test]
    fn skip_draws_like_discarded_makes() {
        for n in [0, 1, 256] {
            let mut made = PacketFactory::new();
            let mut skipped = PacketFactory::new();
            made.make(FlowId(0), PacketKind::Data, 0, SimTime::ZERO);
            skipped.make(FlowId(0), PacketKind::Data, 0, SimTime::ZERO);
            for _ in 0..n {
                made.make(FlowId(1), PacketKind::Data, 0, SimTime::ZERO);
            }
            skipped.skip(n);
            let a = made.make(FlowId(1), PacketKind::Ack, 0, SimTime::ZERO);
            let b = skipped.make(FlowId(1), PacketKind::Ack, 0, SimTime::ZERO);
            assert_eq!(a, b, "skip({n})");
        }
    }

    #[test]
    fn meta_tag_carried() {
        let mut f = PacketFactory::new();
        let p = f.make_meta(FlowId(2), PacketKind::Ack, 0, SimTime::ZERO, 7);
        assert_eq!(p.meta, 7);
        assert_eq!(f.make(FlowId(2), PacketKind::Ack, 0, SimTime::ZERO).meta, 0);
    }

    #[test]
    fn wire_size_includes_headers() {
        let mut f = PacketFactory::new();
        let p = f.make(FlowId(1), PacketKind::Data, 1024, SimTime::ZERO);
        assert_eq!(p.bytes, 1024 + HEADER_BYTES);
    }

    #[test]
    fn segmentation() {
        assert_eq!(segments_for(0), 1);
        assert_eq!(segments_for(100), 1);
        assert_eq!(segments_for(MSS), 1);
        assert_eq!(segments_for(MSS + 1), 2);
        assert_eq!(segments_for(8192), 6); // 8KB Apache page => 6 segments
    }
}
