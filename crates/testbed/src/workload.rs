//! Workload specifications and per-VM runtime workload state.

use std::collections::VecDeque;

use es2_net::TcpFlow;
use es2_workloads::{AbClient, HttperfClient, McOp, MemaslapClient, NetperfSpec, PingProbe};

use crate::guest::{META_MC_GET, META_MC_SET};
use crate::params::{EXT_TCP_WINDOW, TCP_WINDOW};

impl WorkloadSpec {
    /// Whether the guest's vCPUs HLT when idle. Server workloads
    /// (memcached/apache) idle between requests and wake on interrupts —
    /// this is what keeps connection times low below saturation in Fig. 9.
    /// The netperf/ping micro setups instead run the §VI-D CPU-burn
    /// scripts, so their vCPUs never halt.
    pub(crate) fn guest_idles(&self) -> bool {
        // Only the httperf experiment runs the server VM without a
        // CPU-burn companion: its below-saturation connection times are
        // sub-millisecond in the paper, which requires HLT + wake-on-
        // interrupt. The throughput-saturation experiments (memcached,
        // apache) follow the §VI-D "burn script in each VM" setup.
        // `IdleQuiet` tenants are HLT-idle by definition.
        matches!(
            self,
            WorkloadSpec::Httperf { .. } | WorkloadSpec::IdleQuiet
        )
    }
}

/// What the tested VM (and its external peer) runs.
#[derive(Clone, Copy, Debug)]
pub enum WorkloadSpec {
    /// netperf bulk stream (direction and protocol inside the spec).
    Netperf(NetperfSpec),
    /// External ping, 1 s interval (Fig. 7).
    Ping,
    /// Memcached server in the VM, memaslap outside (Fig. 8a).
    Memcached,
    /// Apache server in the VM, ApacheBench outside (Fig. 8b).
    Apache,
    /// Apache server in the VM, httperf outside at a fixed connection rate
    /// (Fig. 9).
    Httperf {
        /// Connections initiated per second.
        rate: f64,
    },
    /// No I/O — the VM only runs its CPU-burn script (the background VMs
    /// of the multiplexed experiments).
    Idle,
    /// No I/O and no CPU-burn script either: a consolidated tenant at
    /// rest, whose guest HLTs whenever it has nothing to do. The
    /// background fleet of the `repro --scale` consolidation sweep, where
    /// most tenants are idle while a few serve traffic.
    IdleQuiet,
}

/// A server-side application request decoded by the guest's receive path.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AppRequest {
    /// Which kind of work it is (memcached op / HTTP GET).
    pub op: ServerOp,
    /// Connection/flow identifier to respond on.
    pub flow: u32,
    /// Opaque client-side tag echoed back in the response.
    pub meta: u32,
}

/// Server-side work types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ServerOp {
    /// memcached get (small request, value-sized response).
    McGet,
    /// memcached set (value-sized request, small response).
    McSet,
    /// HTTP GET for the 8 KB static page (6-segment response).
    HttpGet,
    /// HTTP GET for httperf's small page (1-segment response).
    HttpGetSmall,
}

/// Guest-side runtime state of the workload.
#[derive(Clone, Debug)]
pub(crate) enum GuestWl {
    /// netperf sender: one flow per netperf thread, thread `i` pinned to
    /// vCPU `i`.
    NetperfSend {
        /// The stream spec.
        spec: NetperfSpec,
        /// Per-thread TCP window state (unused entries for UDP).
        flows: Vec<TcpFlow>,
        /// Messages fully handed to the device (windowed count).
        sent_msgs: u64,
        /// Per-flow time of the last ACK (guest-side RTO detection under
        /// injected packet loss; parallel to `flows`).
        last_ack_at: Vec<es2_sim::SimTime>,
    },
    /// netperf receiver: the guest consumes and ACKs.
    NetperfRecv {
        /// The stream spec.
        spec: NetperfSpec,
        /// Receiver-side delayed-ACK state (TCP).
        flow: TcpFlow,
        /// Segments consumed by NAPI inside the window.
        received_segs: u64,
        /// Whether a delayed-ACK flush is scheduled.
        ack_flush_pending: bool,
    },
    /// A server application (memcached / apache): requests decoded by NAPI
    /// queue here and are served by app steps on any vCPU.
    Server {
        /// Pending decoded requests.
        pending: VecDeque<AppRequest>,
        /// Completed requests (windowed).
        served: u64,
    },
    /// Ping / idle: no guest-side application work.
    Passive,
}

impl GuestWl {
    /// Construct the guest-side state for a spec.
    pub(crate) fn for_spec(spec: &WorkloadSpec) -> GuestWl {
        match spec {
            WorkloadSpec::Netperf(np) => match np.direction {
                es2_workloads::NetperfDirection::Send => GuestWl::NetperfSend {
                    spec: *np,
                    flows: (0..np.threads).map(|_| TcpFlow::new(TCP_WINDOW)).collect(),
                    sent_msgs: 0,
                    last_ack_at: vec![es2_sim::SimTime::ZERO; np.threads as usize],
                },
                es2_workloads::NetperfDirection::Receive => GuestWl::NetperfRecv {
                    spec: *np,
                    flow: TcpFlow::new(TCP_WINDOW),
                    received_segs: 0,
                    ack_flush_pending: false,
                },
            },
            WorkloadSpec::Memcached | WorkloadSpec::Apache | WorkloadSpec::Httperf { .. } => {
                GuestWl::Server {
                    pending: VecDeque::new(),
                    served: 0,
                }
            }
            WorkloadSpec::Ping | WorkloadSpec::Idle | WorkloadSpec::IdleQuiet => GuestWl::Passive,
        }
    }
}

/// External-host (traffic generator) runtime state per VM.
#[derive(Clone, Debug)]
pub(crate) enum ExtWl {
    /// Receives the guest's TCP stream; emits delayed ACKs.
    TcpSink {
        /// Receiver-side delayed-ACK state.
        flow: TcpFlow,
        /// Data segments received inside the measurement window.
        received_segs: u64,
    },
    /// Receives the guest's UDP stream.
    UdpSink {
        /// Datagrams received inside the window.
        received: u64,
    },
    /// Sends a TCP stream to the guest (window-limited, with a minimal
    /// AIMD congestion response: tail-drops at the host backlog stall the
    /// ACK clock; an RTO halves the congestion window and clears the
    /// in-flight accounting, modeling retransmission).
    TcpSource {
        /// Sender-side window state (socket-buffer bound).
        flow: TcpFlow,
        /// Dynamic congestion window, in segments.
        cwnd: u32,
        /// Last time an ACK arrived (RTO detection).
        last_ack_at: es2_sim::SimTime,
        /// Segment payload bytes.
        seg_bytes: u32,
        /// Whether a send event is scheduled.
        send_armed: bool,
    },
    /// Sends a UDP stream to the guest at a fixed rate.
    UdpSource {
        /// Datagram payload bytes.
        msg_bytes: u32,
        /// Inter-datagram gap in nanoseconds.
        gap_ns: u64,
    },
    /// Ping client.
    Ping(PingProbe),
    /// memaslap closed-loop client.
    Memaslap {
        /// The load generator.
        client: MemaslapClient,
        /// Operations completed inside the window.
        ops_windowed: u64,
    },
    /// ApacheBench closed-loop client. Each live transaction tracks the
    /// response segments still expected.
    Ab {
        /// Client window state.
        client: AbClient,
        /// Remaining response segments per concurrency slot (flow id).
        remaining: Vec<u32>,
        /// Transactions completed inside the window.
        completed_windowed: u64,
    },
    /// httperf open-loop client.
    Httperf {
        /// The open-loop generator.
        client: HttperfClient,
        /// Connection times (ms) established inside the window.
        conn_times_ms: Vec<f64>,
    },
    /// No external traffic.
    Idle,
}

impl ExtWl {
    /// Build the external-side state for a workload spec.
    pub(crate) fn for_spec(spec: &WorkloadSpec, seed: u64) -> ExtWl {
        use es2_sim::SimDuration;
        use es2_workloads::{NetperfDirection, NetperfProto};
        match spec {
            WorkloadSpec::Netperf(np) => match (np.direction, np.proto) {
                (NetperfDirection::Send, NetperfProto::Tcp) => ExtWl::TcpSink {
                    flow: TcpFlow::new(EXT_TCP_WINDOW),
                    received_segs: 0,
                },
                (NetperfDirection::Send, NetperfProto::Udp) => ExtWl::UdpSink { received: 0 },
                (NetperfDirection::Receive, NetperfProto::Tcp) => ExtWl::TcpSource {
                    flow: TcpFlow::new(EXT_TCP_WINDOW),
                    cwnd: 64,
                    last_ack_at: es2_sim::SimTime::ZERO,
                    seg_bytes: np.payload_per_segment(),
                    send_armed: false,
                },
                (NetperfDirection::Receive, NetperfProto::Udp) => ExtWl::UdpSource {
                    msg_bytes: np.msg_bytes.min(es2_net::packet::MSS),
                    gap_ns: 1100,
                },
            },
            WorkloadSpec::Ping => ExtWl::Ping(PingProbe::new(SimDuration::from_secs(1))),
            WorkloadSpec::Memcached => ExtWl::Memaslap {
                client: MemaslapClient::paper_config(seed),
                ops_windowed: 0,
            },
            WorkloadSpec::Apache => {
                let client = AbClient::paper_config();
                let slots = client.concurrency() as usize;
                ExtWl::Ab {
                    client,
                    remaining: vec![0; slots],
                    completed_windowed: 0,
                }
            }
            WorkloadSpec::Httperf { rate } => ExtWl::Httperf {
                client: HttperfClient::new(*rate, seed),
                conn_times_ms: Vec::new(),
            },
            WorkloadSpec::Idle | WorkloadSpec::IdleQuiet => ExtWl::Idle,
        }
    }
}

/// Encode a memcached op into a packet `meta` tag (the guest server
/// decodes it back into a [`ServerOp`]).
pub(crate) fn encode_mc_op(op: McOp) -> u32 {
    match op {
        McOp::Get => META_MC_GET,
        McOp::Set => META_MC_SET,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use es2_workloads::NetperfSpec;

    #[test]
    fn guest_state_matches_spec() {
        let send = GuestWl::for_spec(&WorkloadSpec::Netperf(
            NetperfSpec::tcp_send(1024).with_threads(4),
        ));
        match send {
            GuestWl::NetperfSend { flows, .. } => assert_eq!(flows.len(), 4),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            GuestWl::for_spec(&WorkloadSpec::Memcached),
            GuestWl::Server { .. }
        ));
        assert!(matches!(
            GuestWl::for_spec(&WorkloadSpec::Ping),
            GuestWl::Passive
        ));
    }
}
