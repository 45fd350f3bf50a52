//! The external traffic-generator server (the second Xeon of §VI-A).
//!
//! Bare-metal and unvirtualized, it is never the bottleneck: packets are
//! processed with a small fixed delay (`Params::ext_pkt`), and the load
//! generators from `es2-workloads` drive the protocol state machines.

use es2_net::{FlowId, Packet, PacketKind};
use es2_sim::SimDuration;

use crate::guest::{META_HTTP_GET, META_HTTP_GET_SMALL};
use crate::machine::{Ev, Machine};
use crate::workload::{encode_mc_op, ExtWl};

impl Machine {
    /// Schedule the initial external traffic for every VM.
    pub(crate) fn bootstrap_external(&mut self) {
        for vm in 0..self.ext.len() as u32 {
            self.bootstrap_external_vm(vm);
        }
    }

    /// Schedule the initial external traffic for one VM. Factored out of
    /// the whole-machine bootstrap so a crash-evacuated VM cold-restarting
    /// on another host can rebuild its (lost) peer there mid-run.
    pub(crate) fn bootstrap_external_vm(&mut self, vm: u32) {
        {
            match &mut self.ext[vm as usize] {
                ExtWl::TcpSource { send_armed, .. } => {
                    *send_armed = true;
                    self.q
                        .push(self.now + SimDuration::from_micros(10), Ev::ExtSend { vm });
                    self.q.push(
                        self.now + SimDuration::from_millis(5),
                        Ev::ExtTcpTimeout { vm },
                    );
                }
                ExtWl::UdpSource { .. } => {
                    self.q
                        .push(self.now + SimDuration::from_micros(10), Ev::ExtSend { vm });
                }
                ExtWl::Ping(_) => {
                    self.q
                        .push(self.now + SimDuration::from_millis(1), Ev::ExtSend { vm });
                }
                ExtWl::Httperf { .. } => {
                    self.q
                        .push(self.now + SimDuration::from_micros(50), Ev::ExtSend { vm });
                }
                ExtWl::Memaslap { client, .. } => {
                    // Initial closed-loop burst: one request per window slot.
                    let ops = client.issue();
                    let reqs: Vec<Packet> = ops
                        .iter()
                        .enumerate()
                        .map(|(slot, &op)| {
                            let bytes = op.request_bytes();
                            self.pf.make_meta(
                                FlowId(slot as u32),
                                PacketKind::Request,
                                bytes,
                                self.now,
                                encode_mc_op(op),
                            )
                        })
                        .collect();
                    for (i, pkt) in reqs.into_iter().enumerate() {
                        // Spread the burst slightly (client thread ramp-up).
                        let at = self.now + SimDuration::from_micros(5 * (i as u64 + 1));
                        self.transmit_to_host_at(vm, pkt, at);
                    }
                }
                ExtWl::Ab { client, .. } => {
                    let n = client.issue();
                    for slot in 0..n {
                        let syn =
                            self.pf
                                .make_meta(FlowId(slot), PacketKind::Syn, 0, self.now, slot);
                        let at = self.now + SimDuration::from_micros(10 * (slot as u64 + 1));
                        self.transmit_to_host_at(vm, syn, at);
                    }
                }
                ExtWl::TcpSink { .. } | ExtWl::UdpSink { .. } | ExtWl::Idle => {}
            }
        }
    }

    /// Put a packet on the generator→host wire with the generator's
    /// processing delay.
    fn transmit_to_host(&mut self, vm: u32, pkt: Packet) {
        let at = self.now + self.p.ext_pkt;
        self.transmit_to_host_at(vm, pkt, at);
    }

    fn transmit_to_host_at(&mut self, vm: u32, pkt: Packet, at: es2_sim::SimTime) {
        let fault = self.faults.on_packet();
        match self.link_to_host.transmit_faulted(at, pkt.bytes, fault) {
            es2_net::FaultedArrival::Dropped => {}
            es2_net::FaultedArrival::One(arrival) => {
                self.q.push(arrival, Ev::ArriveAtHost { vm, pkt });
            }
            es2_net::FaultedArrival::Two(first, second) => {
                self.q.push(first, Ev::ArriveAtHost { vm, pkt });
                self.q.push(second, Ev::ArriveAtHost { vm, pkt });
            }
        }
    }

    /// A paced generator event fired (stream sources, ping, httperf).
    pub(crate) fn on_ext_send(&mut self, vm: u32) {
        enum Action {
            Send {
                kind: PacketKind,
                flow: u32,
                bytes: u32,
                meta: u32,
                rearm: Option<SimDuration>,
            },
            Nothing,
        }
        let vmi = vm as usize;
        let now = self.now;
        let ext_pkt = self.p.ext_pkt;
        let action = match &mut self.ext[vmi] {
            ExtWl::TcpSource {
                flow,
                cwnd,
                seg_bytes,
                send_armed,
                ..
            } => {
                let window_ok = |f: &es2_net::TcpFlow, cw: u32| f.can_send() && f.inflight() < cw;
                if window_ok(flow, *cwnd) {
                    flow.on_segment_sent();
                    let rearm = if window_ok(flow, *cwnd) {
                        *send_armed = true;
                        Some(ext_pkt)
                    } else {
                        *send_armed = false;
                        None
                    };
                    Action::Send {
                        kind: PacketKind::Data,
                        flow: 0,
                        bytes: *seg_bytes,
                        meta: 0,
                        rearm,
                    }
                } else {
                    *send_armed = false;
                    Action::Nothing
                }
            }
            ExtWl::UdpSource { msg_bytes, gap_ns } => Action::Send {
                kind: PacketKind::Data,
                flow: 0,
                bytes: *msg_bytes,
                meta: 0,
                rearm: Some(SimDuration::from_nanos(*gap_ns)),
            },
            ExtWl::Ping(probe) => {
                let seq = probe.send(now) as u32;
                Action::Send {
                    kind: PacketKind::EchoRequest,
                    flow: 0,
                    bytes: 56,
                    meta: seq,
                    rearm: Some(probe.interval()),
                }
            }
            ExtWl::Httperf { client, .. } => {
                let conn = client.start_connection(now);
                let gap = client.next_interarrival();
                Action::Send {
                    kind: PacketKind::Syn,
                    flow: conn as u32,
                    bytes: 0,
                    meta: conn as u32,
                    rearm: Some(gap),
                }
            }
            _ => Action::Nothing,
        };
        if let Action::Send {
            kind,
            flow,
            bytes,
            meta,
            rearm,
        } = action
        {
            let pkt = self.pf.make_meta(FlowId(flow), kind, bytes, now, meta);
            self.transmit_to_host(vm, pkt);
            if let Some(gap) = rearm {
                self.q.push(now + gap, Ev::ExtSend { vm });
            }
        }
    }

    /// Periodic RTO check for a TCP source: a stalled ACK clock means
    /// segments were tail-dropped at the host. Halve the congestion
    /// window (multiplicative decrease) and clear the in-flight
    /// accounting — the retransmission burst re-enters through the
    /// normal send path.
    pub(crate) fn on_ext_tcp_timeout(&mut self, vm: u32) {
        let vmi = vm as usize;
        let mut rearm_send = false;
        if let ExtWl::TcpSource {
            flow,
            cwnd,
            last_ack_at,
            send_armed,
            ..
        } = &mut self.ext[vmi]
        {
            let rto = SimDuration::from_millis(8);
            if flow.inflight() > 0 && self.now.saturating_since(*last_ack_at) > rto {
                let stuck = flow.inflight();
                flow.on_ack_received(stuck);
                *cwnd = (*cwnd / 2).max(8);
                *last_ack_at = self.now;
                if !*send_armed {
                    *send_armed = true;
                    rearm_send = true;
                }
            }
            self.q.push(
                self.now + SimDuration::from_millis(5),
                Ev::ExtTcpTimeout { vm },
            );
        }
        if rearm_send {
            self.q.push(self.now + self.p.ext_pkt, Ev::ExtSend { vm });
        }
    }

    /// A packet from the tested host arrived at the generator.
    pub(crate) fn on_arrive_ext(&mut self, vm: u32, pkt: Packet) {
        let vmi = vm as usize;
        let window_open = self.window_open;
        match &mut self.ext[vmi] {
            ExtWl::TcpSink {
                flow,
                received_segs,
            } => {
                if pkt.kind == PacketKind::Data {
                    if window_open {
                        *received_segs += 1;
                    }
                    if let Some(covered) = flow.on_data_received() {
                        let ack =
                            self.pf
                                .make_meta(pkt.flow, PacketKind::Ack, 0, self.now, covered);
                        self.transmit_to_host(vm, ack);
                    }
                }
            }
            ExtWl::UdpSink { received } => {
                if pkt.kind == PacketKind::Data && window_open {
                    *received += 1;
                }
            }
            ExtWl::TcpSource {
                flow,
                cwnd,
                last_ack_at,
                send_armed,
                ..
            } => {
                if pkt.kind == PacketKind::Ack {
                    flow.on_ack_received(pkt.meta);
                    *last_ack_at = self.now;
                    // Additive increase per ACK, up to the socket buffer.
                    *cwnd = (*cwnd + 1).min(flow.window());
                    if !*send_armed && flow.can_send() && flow.inflight() < *cwnd {
                        *send_armed = true;
                        self.q.push(self.now + self.p.ext_pkt, Ev::ExtSend { vm });
                    }
                }
            }
            ExtWl::Ping(probe) => {
                if pkt.kind == PacketKind::EchoReply {
                    probe.on_reply(pkt.meta as u64, self.now);
                }
            }
            ExtWl::Memaslap {
                client,
                ops_windowed,
            } => {
                if pkt.kind == PacketKind::Response {
                    let next = client.on_response();
                    if window_open {
                        *ops_windowed += 1;
                    }
                    let bytes = next.request_bytes();
                    let meta = encode_mc_op(next);
                    let req =
                        self.pf
                            .make_meta(pkt.flow, PacketKind::Request, bytes, self.now, meta);
                    self.transmit_to_host(vm, req);
                }
            }
            ExtWl::Ab {
                client,
                remaining,
                completed_windowed,
            } => match pkt.kind {
                PacketKind::SynAck => {
                    let slot = pkt.flow.0 as usize % remaining.len();
                    remaining[slot] = 6;
                    let get = self.pf.make_meta(
                        pkt.flow,
                        PacketKind::Request,
                        es2_workloads::apachebench::REQUEST_BYTES,
                        self.now,
                        META_HTTP_GET,
                    );
                    self.transmit_to_host(vm, get);
                }
                PacketKind::Response => {
                    let slot = pkt.flow.0 as usize % remaining.len();
                    if remaining[slot] > 0 {
                        remaining[slot] -= 1;
                        if remaining[slot] == 0 {
                            client.on_complete();
                            if window_open {
                                *completed_windowed += 1;
                            }
                            // Next transaction on this slot: fresh SYN.
                            let syn = self.pf.make_meta(
                                pkt.flow,
                                PacketKind::Syn,
                                0,
                                self.now,
                                pkt.flow.0,
                            );
                            self.transmit_to_host(vm, syn);
                        }
                    }
                }
                _ => {}
            },
            ExtWl::Httperf {
                client,
                conn_times_ms,
            } => {
                if pkt.kind == PacketKind::SynAck {
                    if let Some(d) = client.on_established(pkt.meta as u64, self.now) {
                        if window_open {
                            conn_times_ms.push(d.as_millis_f64());
                        }
                        // Fetch the page over the established connection.
                        let get = self.pf.make_meta(
                            pkt.flow,
                            PacketKind::Request,
                            es2_workloads::apachebench::REQUEST_BYTES,
                            self.now,
                            META_HTTP_GET_SMALL,
                        );
                        self.transmit_to_host(vm, get);
                    }
                }
            }
            ExtWl::UdpSource { .. } | ExtWl::Idle => {}
        }
    }
}
