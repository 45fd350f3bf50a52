//! netperf TCP_STREAM / UDP_STREAM specifications.
//!
//! netperf bulk streams are *saturating closed loops*: the sending side
//! always has the next message ready, limited only by CPU and (for TCP)
//! the flow-control window. The spec here captures the benchmark's
//! parameters; the byte/segment arithmetic is shared by the testbed and
//! the throughput reports.

use es2_net::packet::{segments_for, MSS};

/// Transport protocol under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetperfProto {
    /// TCP_STREAM: ACK-clocked, bidirectional wire traffic.
    Tcp,
    /// UDP_STREAM: unidirectional, connectionless.
    Udp,
}

/// Direction relative to the tested VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetperfDirection {
    /// The VM sends to the external server.
    Send,
    /// The VM receives from the external server.
    Receive,
}

/// One netperf stream configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetperfSpec {
    /// Protocol.
    pub proto: NetperfProto,
    /// Direction.
    pub direction: NetperfDirection,
    /// Application message size in bytes (the paper sweeps 64–2048).
    pub msg_bytes: u32,
    /// Concurrent netperf processes ("four concurrent netperf threads were
    /// used to fully load the four vCPUs", §VI-D1).
    pub threads: u32,
}

impl NetperfSpec {
    /// A single-threaded TCP send stream (the §VI-B/§VI-C micro setup).
    pub fn tcp_send(msg_bytes: u32) -> Self {
        NetperfSpec {
            proto: NetperfProto::Tcp,
            direction: NetperfDirection::Send,
            msg_bytes,
            threads: 1,
        }
    }

    /// A single-threaded UDP send stream.
    pub fn udp_send(msg_bytes: u32) -> Self {
        NetperfSpec {
            proto: NetperfProto::Udp,
            direction: NetperfDirection::Send,
            msg_bytes,
            threads: 1,
        }
    }

    /// A TCP receive stream.
    pub fn tcp_receive(msg_bytes: u32) -> Self {
        NetperfSpec {
            proto: NetperfProto::Tcp,
            direction: NetperfDirection::Receive,
            msg_bytes,
            threads: 1,
        }
    }

    /// A UDP receive stream.
    pub fn udp_receive(msg_bytes: u32) -> Self {
        NetperfSpec {
            proto: NetperfProto::Udp,
            direction: NetperfDirection::Receive,
            msg_bytes,
            threads: 1,
        }
    }

    /// Same spec with a different thread count.
    pub fn with_threads(mut self, threads: u32) -> Self {
        assert!(threads > 0);
        self.threads = threads;
        self
    }

    /// Wire segments per application message.
    #[inline]
    pub fn segments_per_msg(&self) -> u32 {
        match self.proto {
            NetperfProto::Tcp => segments_for(self.msg_bytes),
            // A UDP datagram under MTU is one frame; above, IP fragments.
            NetperfProto::Udp => self.msg_bytes.div_ceil(MSS).max(1),
        }
    }

    /// Bytes carried per segment (last segment may be short; we use the
    /// average for throughput accounting).
    #[inline]
    pub fn payload_per_segment(&self) -> u32 {
        self.msg_bytes / self.segments_per_msg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_are_single_segment() {
        assert_eq!(NetperfSpec::tcp_send(1024).segments_per_msg(), 1);
        assert_eq!(NetperfSpec::udp_send(256).segments_per_msg(), 1);
    }

    #[test]
    fn large_messages_segment() {
        let s = NetperfSpec::tcp_send(4096);
        assert_eq!(s.segments_per_msg(), 3); // 4096 / 1460 -> 3
        assert_eq!(s.payload_per_segment(), 1365);
    }

    #[test]
    fn thread_builder() {
        let s = NetperfSpec::tcp_send(1024).with_threads(4);
        assert_eq!(s.threads, 4);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        NetperfSpec::tcp_send(64).with_threads(0);
    }
}
