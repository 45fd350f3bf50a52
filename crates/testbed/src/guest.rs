//! Guest-side execution: application steps, interrupt handlers, the
//! NAPI receive path, and the TX kick sequence.
//!
//! The guest model reflects the §VI experimental setup: the benchmark
//! application (netperf / memcached / apache) shares the guest with a
//! lowest-priority CPU-burn script, so a vCPU always has *something* to run
//! — I/O work preempts the burner instantly, and the burner guarantees the
//! vCPU thread never HLTs (exactly why the paper runs those scripts).

use es2_hypervisor::{ExitReason, InterruptPath};
use es2_net::{FlowId, Packet, PacketKind};
use es2_sim::SimDuration;
use es2_virtio::KickDecision;
use es2_workloads::{McOp, NetperfDirection, NetperfProto};

use crate::machine::{AfterExit, AppStep, IrqKind, Machine, SegKind};
use crate::params::{
    guest_rx_cost, guest_tx_cost, BURN_SLICE, BURST_DENOM, BURST_MIN, BURST_SPAN,
    DELAYED_ACK_TIMEOUT, EXIT_CACHE_PENALTY, GUEST_IRQ_ENTRY, GUEST_RTO, GUEST_RTO_CHECK,
    GUEST_TIMER_WORK, GUEST_TXCLEAN, NAPI_WEIGHT, SERVE_HTTP_PAGE, SERVE_HTTP_SMALL, SERVE_MC,
    SRIOV_DMA,
};
use crate::workload::{AppRequest, GuestWl, ServerOp};

/// Packet `meta` tags for request kinds.
pub(crate) const META_MC_GET: u32 = 0;
pub(crate) const META_MC_SET: u32 = 1;
pub(crate) const META_HTTP_GET: u32 = 2;
pub(crate) const META_HTTP_GET_SMALL: u32 = 3;

impl Machine {
    /// Emit one TX packet on pair `qi` of the configured device.
    /// Paravirtual: expose on that TX virtqueue and report whether a kick
    /// is due. Assigned VF: the guest writes the VF ring and rings its
    /// doorbell — untrapped MMIO, the frame goes straight to the wire,
    /// never a kick (the §VII property: SR-IOV already avoids I/O-request
    /// exits).
    fn guest_tx_emit(&mut self, vm: u32, qi: usize, pkt: Packet) -> Result<bool, ()> {
        let vmi = vm as usize;
        if self.p.device == crate::params::DeviceKind::AssignedVf {
            let at = self.now + SRIOV_DMA;
            let fault = self.faults.on_packet();
            self.link_to_ext
                .transmit_faulted(at, pkt.bytes, fault)
                .for_each(|arrival| {
                    self.q
                        .push(arrival, crate::machine::Ev::ArriveAtExt { vm, pkt })
                });
            return Ok(false);
        }
        match self.vms[vmi].pairs[qi].tx.driver_add(pkt) {
            Ok(KickDecision::Kick) => Ok(true),
            Ok(KickDecision::NoKick) => Ok(false),
            Err(_) => Err(()),
        }
    }

    // -----------------------------------------------------------------
    // Work selection
    // -----------------------------------------------------------------

    /// Pick the next guest-mode segment for a vCPU: application work if
    /// any is runnable, otherwise the burn script.
    pub(crate) fn start_vcpu_work(&mut self, vm: u32, idx: u32) {
        let tid = self.vms[vm as usize].vcpu_tids[idx as usize];
        debug_assert!(self.vms[vm as usize].vcpus[idx as usize].in_guest);
        if let Some((step, dur)) = self.select_app_step(vm, idx) {
            self.start_segment(tid, SegKind::App(step), dur);
        } else if self.vms[vm as usize].guest_idles
            && !self.vms[vm as usize].vcpus[idx as usize].has_deliverable()
        {
            // Guest idle loop: HLT. The exit hands the core back to the
            // host scheduler; delivery of the next interrupt (or queued
            // application work) wakes the thread.
            self.do_vm_exit(vm, idx, ExitReason::Hlt);
            let sw = self.sched.block(tid, self.now);
            self.apply_switch(sw);
        } else if self.vms[vm as usize].burns_open(idx) {
            self.start_segment(tid, SegKind::OpenBurn, BURN_SLICE);
        } else {
            self.start_segment(tid, SegKind::Burn, BURN_SLICE);
        }
    }

    /// Try to find runnable application work for this vCPU.
    fn select_app_step(&mut self, vm: u32, idx: u32) -> Option<(AppStep, SimDuration)> {
        let vmi = vm as usize;
        // The vCPU's transmit path uses its own pair of the multi-queue
        // device (pair 0 on a single-queue device).
        let qi = self.vms[vmi].tx_pair_for_vcpu(idx);
        // Free TX descriptors including reclaimable used entries (the
        // driver frees completions in its xmit path).
        let tx_room = if self.p.device == crate::params::DeviceKind::AssignedVf {
            u32::MAX
        } else {
            self.vms[vmi].pairs[qi].tx.num_free() as u32
                + self.vms[vmi].pairs[qi].tx.used_pending() as u32
        };
        match &mut self.vms[vmi].wl {
            GuestWl::NetperfSend { spec, flows, .. } => {
                // netperf thread i is pinned to vCPU i.
                if idx >= spec.threads {
                    return None;
                }
                let f = idx as usize;
                let segs = spec.segments_per_msg();
                let payload = spec.payload_per_segment();
                let msg_bytes = spec.msg_bytes;
                let tcp = spec.proto == NetperfProto::Tcp;
                let window = flows[f].window();
                let inflight = flows[f].inflight();
                if tcp && inflight + segs > window {
                    return None; // stalled on ACKs; burn until NAPI opens it
                }
                // Softirq/socket batching: occasionally a step produces a
                // burst of messages exposed as one batch.
                let mut count = if self.rng.gen_range(BURST_DENOM as u64) == 0 {
                    BURST_MIN + self.rng.gen_range(BURST_SPAN as u64 + 1) as u32
                } else {
                    1
                };
                if tcp {
                    let room = (window - inflight) / segs;
                    count = count.min(room.max(1));
                }
                if tx_room < segs * count {
                    count = tx_room / segs;
                    if count == 0 {
                        self.block_on_tx_full(vm, qi);
                        return None;
                    }
                }
                let step = if tcp {
                    AppStep::TcpMsg {
                        flow: idx,
                        segs,
                        payload,
                        count,
                    }
                } else {
                    AppStep::UdpMsg {
                        segs,
                        payload,
                        count,
                    }
                };
                let mut dur = guest_tx_cost(tcp, msg_bytes, segs) * count as u64;
                dur += self.take_cache_penalty(vm, idx);
                Some((step, self.jitter(dur)))
            }
            GuestWl::Server { pending, .. } => {
                let req = pending.pop_front()?;
                let (segs, dur) = match req.op {
                    ServerOp::McGet => (1, SERVE_MC),
                    ServerOp::McSet => (1, SERVE_MC),
                    ServerOp::HttpGet => (6, SERVE_HTTP_PAGE),
                    ServerOp::HttpGetSmall => (1, SERVE_HTTP_SMALL),
                };
                if tx_room < segs {
                    // Put it back and wait for TX completions.
                    if let GuestWl::Server { pending, .. } = &mut self.vms[vmi].wl {
                        pending.push_front(req);
                    }
                    self.block_on_tx_full(vm, qi);
                    return None;
                }
                let dur = dur + self.take_cache_penalty(vm, idx);
                Some((AppStep::Serve { req }, self.jitter(dur)))
            }
            GuestWl::NetperfRecv { .. } | GuestWl::Passive => None,
        }
    }

    /// Consume the cache-cold flag left by the last VM exit: the first
    /// application step after re-entry pays the refill penalty.
    fn take_cache_penalty(&mut self, vm: u32, idx: u32) -> SimDuration {
        let ctx = &mut self.vms[vm as usize].vctx[idx as usize];
        if ctx.cache_cold {
            ctx.cache_cold = false;
            EXIT_CACHE_PENALTY
        } else {
            SimDuration::ZERO
        }
    }

    /// Per-packet NAPI cost, size-scaled by the oldest pending frame on
    /// pair `qi`.
    fn guest_rx_pkt_cost(&self, vm: u32, qi: usize) -> SimDuration {
        let bytes = self.vms[vm as usize].pairs[qi]
            .rx
            .peek_used()
            .map(|p| p.bytes)
            .unwrap_or(0);
        guest_rx_cost(bytes)
    }

    /// ±15 % uniform jitter on guest path lengths — real guest code paths
    /// vary with cache state, softirq interference and syscall batching,
    /// and this variability is what lets a draining vhost handler
    /// occasionally catch the queue empty (the Fig. 4 quota sensitivity).
    fn jitter(&mut self, dur: SimDuration) -> SimDuration {
        let ns = dur.as_nanos();
        let scaled = ns * (85 + self.rng.gen_range(31)) / 100;
        SimDuration::from_nanos(scaled)
    }

    /// Pair `qi`'s TX ring is full: arm TX-completion interrupts so the
    /// driver is woken when vhost returns descriptors (virtio-net's
    /// stop-queue path). Only this queue stops; siblings keep sending.
    fn block_on_tx_full(&mut self, vm: u32, qi: usize) {
        let vmi = vm as usize;
        if self.vms[vmi].pairs[qi].blocked_tx_full {
            return;
        }
        self.vms[vmi].pairs[qi].blocked_tx_full = true;
        if self.vms[vmi].pairs[qi].tx.driver_enable_interrupts() {
            // Completions already arrived: reclaim immediately, no
            // interrupt needed.
            while self.vms[vmi].pairs[qi].tx.driver_take_used().is_some() {}
            self.vms[vmi].pairs[qi].tx.driver_disable_interrupts();
            self.vms[vmi].pairs[qi].blocked_tx_full = false;
        }
    }

    /// Application work became runnable (ACKs arrived, requests queued):
    /// preempt any vCPU of this VM that is burning so it picks the work up
    /// immediately (the benchmark process outranks the nice-19 burner).
    pub(crate) fn guest_app_wakeup(&mut self, vm: u32) {
        for idx in 0..self.vms[vm as usize].vcpu_tids.len() {
            let tid = self.vms[vm as usize].vcpu_tids[idx];
            let burning = matches!(
                self.threads[tid.idx()].seg,
                Some(crate::machine::Segment {
                    kind: SegKind::Burn | SegKind::OpenBurn,
                    ..
                })
            );
            if burning && self.sched.is_running(tid) && self.vms[vm as usize].vcpus[idx].in_guest {
                self.save_active(tid);
                self.clear_seg(tid);
                self.start_vcpu_work(vm, idx as u32);
            } else if self.vms[vm as usize].guest_idles {
                // Wake a halted sibling for the queued work (guest
                // reschedule IPI); no-op if it is merely preempted.
                self.wake_thread(tid);
            }
        }
    }

    // -----------------------------------------------------------------
    // Application-step completion
    // -----------------------------------------------------------------

    pub(crate) fn complete_app(&mut self, vm: u32, idx: u32, step: AppStep) {
        let vmi = vm as usize;
        let qi = self.vms[vmi].tx_pair_for_vcpu(idx);
        // Free completed TX descriptors first (free-at-xmit).
        while self.vms[vmi].pairs[qi].tx.driver_take_used().is_some() {}
        let mut need_kick = false;
        match step {
            AppStep::TcpMsg {
                flow,
                segs,
                payload,
                count,
            } => {
                'outer: for _ in 0..count {
                    for _ in 0..segs {
                        if let GuestWl::NetperfSend { flows, .. } = &mut self.vms[vmi].wl {
                            flows[flow as usize].on_segment_sent();
                        }
                        let pkt = self
                            .pf
                            .make(FlowId(flow), PacketKind::Data, payload, self.now);
                        match self.guest_tx_emit(vm, qi, pkt) {
                            Ok(kick) => need_kick |= kick,
                            Err(()) => {
                                self.block_on_tx_full(vm, qi);
                                break 'outer;
                            }
                        }
                    }
                    if self.window_open {
                        if let GuestWl::NetperfSend { sent_msgs, .. } = &mut self.vms[vmi].wl {
                            *sent_msgs += 1;
                        }
                    }
                }
            }
            AppStep::UdpMsg {
                segs,
                payload,
                count,
            } => {
                'outer: for _ in 0..count {
                    for _ in 0..segs {
                        let pkt = self.pf.make(FlowId(0), PacketKind::Data, payload, self.now);
                        match self.guest_tx_emit(vm, qi, pkt) {
                            Ok(kick) => need_kick |= kick,
                            Err(()) => {
                                self.block_on_tx_full(vm, qi);
                                break 'outer;
                            }
                        }
                    }
                    if self.window_open {
                        if let GuestWl::NetperfSend { sent_msgs, .. } = &mut self.vms[vmi].wl {
                            *sent_msgs += 1;
                        }
                    }
                }
            }
            AppStep::Serve { req } => {
                need_kick = self.enqueue_response(vm, qi, req);
                if self.window_open {
                    if let GuestWl::Server { served, .. } = &mut self.vms[vmi].wl {
                        *served += 1;
                    }
                }
            }
        }
        if need_kick {
            let h = self.vms[vmi].pairs[qi].tx_h;
            self.begin_kick_exit(vm, idx, h);
        } else {
            self.start_vcpu_work(vm, idx);
        }
    }

    /// Build and enqueue the response packets for a served request on
    /// pair `qi`. Returns whether a kick is needed.
    fn enqueue_response(&mut self, vm: u32, qi: usize, req: AppRequest) -> bool {
        let (count, bytes) = match req.op {
            ServerOp::McGet => (1, McOp::Get.response_bytes()),
            ServerOp::McSet => (1, McOp::Set.response_bytes()),
            ServerOp::HttpGet => (6, 1365),
            ServerOp::HttpGetSmall => (1, 1024),
        };
        let mut kick = false;
        for _ in 0..count {
            let pkt = self.pf.make_meta(
                FlowId(req.flow),
                PacketKind::Response,
                bytes,
                self.now,
                req.meta,
            );
            match self.guest_tx_emit(vm, qi, pkt) {
                Ok(k) => kick |= k,
                Err(()) => {
                    self.block_on_tx_full(vm, qi);
                    break;
                }
            }
        }
        kick
    }

    // -----------------------------------------------------------------
    // Interrupt handlers
    // -----------------------------------------------------------------

    /// Start the guest handler for `vector` on a vCPU in guest mode.
    pub(crate) fn begin_irq(&mut self, vm: u32, idx: u32, vector: u8) {
        let vmi = vm as usize;
        let pair = self.vms[vmi].vector_pair(vector);
        self.note_irq_begin(vm, idx, vector, pair.is_some());
        let tid = self.vms[vmi].vcpu_tids[idx as usize];
        let (kind, dur) = match pair {
            Some((qi, false)) => {
                // NAPI: mask further RX interrupts on this pair, poll a
                // batch.
                self.vms[vmi].pairs[qi].rx.driver_disable_interrupts();
                let batch = (self.vms[vmi].pairs[qi].rx.used_pending() as u32).min(NAPI_WEIGHT);
                let per_pkt = self.guest_rx_pkt_cost(vm, qi);
                (
                    IrqKind::Rx { vector, batch },
                    GUEST_IRQ_ENTRY + per_pkt * batch as u64,
                )
            }
            Some((_, true)) => (IrqKind::TxClean { vector }, GUEST_IRQ_ENTRY + GUEST_TXCLEAN),
            None => (IrqKind::Timer, GUEST_IRQ_ENTRY + GUEST_TIMER_WORK),
        };
        self.start_segment(tid, SegKind::Irq(kind), dur);
    }

    pub(crate) fn complete_irq(&mut self, vm: u32, idx: u32, kind: IrqKind) {
        let vmi = vm as usize;
        match kind {
            IrqKind::Rx { vector, batch } => {
                let qi = match self.vms[vmi].vector_pair(vector) {
                    Some((qi, _)) => qi,
                    None => 0,
                };
                // Consume the polled batch: reclaim buffers, refill the
                // ring, apply per-packet protocol effects.
                for _ in 0..batch {
                    let Some(pkt) = self.vms[vmi].pairs[qi].rx.driver_take_used() else {
                        break;
                    };
                    // Refill with a fresh buffer. It carries no data until
                    // vhost fills it, but it still draws a packet id:
                    // `rss_queue` hashes ids, so skipping the draw would
                    // move later packets to other queues.
                    self.pf.make(FlowId(vm), PacketKind::Data, 0, self.now);
                    if let Ok(KickDecision::Kick) = self.vms[vmi].pairs[qi].rx.driver_add(()) {
                        // RX refill kick (only armed when vhost starved).
                        let h = self.vms[vmi].pairs[qi].rx_h;
                        let pk = &mut self.vms[vmi].vctx[idx as usize].pending_kicks;
                        if !pk.contains(&h) {
                            pk.push(h);
                        }
                    }
                    self.guest_rx_effect(vm, idx, pkt);
                }
                // More packets arrived during the poll: another batch
                // before re-enabling interrupts (the NAPI loop).
                let remaining = self.vms[vmi].pairs[qi].rx.used_pending() as u32;
                if remaining > 0 {
                    let tid = self.vms[vmi].vcpu_tids[idx as usize];
                    let batch = remaining.min(NAPI_WEIGHT);
                    let per_pkt = self.guest_rx_pkt_cost(vm, qi);
                    self.start_segment(
                        tid,
                        SegKind::Irq(IrqKind::Rx { vector, batch }),
                        per_pkt * batch as u64,
                    );
                    return;
                }
                // NAPI complete: re-arm RX interrupts. A completion that
                // raced in during this final pass means the interrupt edge
                // was suppressed: re-poll instead of sleeping on it.
                if self.vms[vmi].pairs[qi].rx.driver_enable_interrupts() {
                    self.vms[vmi].pairs[qi].rx.driver_disable_interrupts();
                    let tid = self.vms[vmi].vcpu_tids[idx as usize];
                    let batch = (self.vms[vmi].pairs[qi].rx.used_pending() as u32).min(NAPI_WEIGHT);
                    let per_pkt = self.guest_rx_pkt_cost(vm, qi);
                    self.start_segment(
                        tid,
                        SegKind::Irq(IrqKind::Rx { vector, batch }),
                        per_pkt * batch as u64,
                    );
                    return;
                }
                self.eoi_sequence(vm, idx);
            }
            IrqKind::TxClean { vector } => {
                let qi = match self.vms[vmi].vector_pair(vector) {
                    Some((qi, _)) => qi,
                    None => 0,
                };
                while self.vms[vmi].pairs[qi].tx.driver_take_used().is_some() {}
                self.vms[vmi].pairs[qi].tx.driver_disable_interrupts();
                self.vms[vmi].pairs[qi].blocked_tx_full = false;
                self.guest_app_wakeup(vm);
                self.eoi_sequence(vm, idx);
            }
            IrqKind::Timer => {
                self.eoi_sequence(vm, idx);
            }
        }
    }

    /// The guest handler writes EOI: an `APIC Access` exit on the emulated
    /// path, exit-less on the vAPIC. Keyed off the vCPU's *current* path —
    /// after a mid-run posted→emulated degradation the very same handler
    /// completes through the emulated EOI machinery.
    fn eoi_sequence(&mut self, vm: u32, idx: u32) {
        self.note_handler_end(vm, idx);
        // Hostile-guest hook: the plan's target VM may follow the real EOI
        // with a burst of spurious EOI writes. The vAPIC absorbs them
        // exit-free; on the emulated path each write is one more
        // APIC-access exit, drained after the real EOI exit completes.
        // Well-behaved VMs take the zero fast path with zero RNG draws.
        let storm = self.faults.on_hostile_eoi(vm);
        if storm > 0 {
            self.note_eoi_storm(vm, idx, storm);
            if self.vms[vm as usize].vcpus[idx as usize].path != InterruptPath::Posted {
                self.vms[vm as usize].vctx[idx as usize].pending_spurious_eois += storm;
            }
        }
        if self.vms[vm as usize].vcpus[idx as usize].path == InterruptPath::Posted {
            let next = {
                let vcpu = &mut self.vms[vm as usize].vcpus[idx as usize];
                vcpu.eoi();
                vcpu.take_posted_interrupt()
            };
            // Virtual-APIC EOI is exit-less and instantaneous in the
            // model: the span closes with a zero-length EOI stage.
            self.note_eoi(vm, idx);
            match next {
                Some(v) => self.begin_irq(vm, idx, v),
                None => self.resume_or_fresh(vm, idx),
            }
        } else {
            self.begin_exit(vm, idx, ExitReason::ApicAccess, AfterExit::Eoi);
        }
    }

    // -----------------------------------------------------------------
    // Receive-path protocol effects
    // -----------------------------------------------------------------

    /// Apply the protocol effect of one received packet (inside NAPI).
    fn guest_rx_effect(&mut self, vm: u32, idx: u32, pkt: Packet) {
        let vmi = vm as usize;
        self.note_rx_latency(vm, self.now.saturating_since(pkt.created_at).as_nanos());
        match pkt.kind {
            PacketKind::Data => {
                let win = self.window_open;
                let mut ack_to_send: Option<u32> = None;
                let mut arm_flush = false;
                if let GuestWl::NetperfRecv {
                    spec,
                    flow,
                    received_segs,
                    ack_flush_pending,
                    ..
                } = &mut self.vms[vmi].wl
                {
                    if win {
                        *received_segs += 1;
                    }
                    if spec.proto == NetperfProto::Tcp {
                        debug_assert_eq!(spec.direction, NetperfDirection::Receive);
                        if let Some(covered) = flow.on_data_received() {
                            ack_to_send = Some(covered);
                        } else if !*ack_flush_pending {
                            *ack_flush_pending = true;
                            arm_flush = true;
                        }
                    }
                }
                if arm_flush {
                    let at = self.now + DELAYED_ACK_TIMEOUT;
                    self.q.push(at, crate::machine::Ev::AckFlush { vm });
                }
                if let Some(covered) = ack_to_send {
                    let ack = self
                        .pf
                        .make_meta(pkt.flow, PacketKind::Ack, 0, self.now, covered);
                    self.enqueue_tx_in_irq(vm, idx, ack);
                }
            }
            PacketKind::Ack => {
                let now = self.now;
                if let GuestWl::NetperfSend {
                    flows, last_ack_at, ..
                } = &mut self.vms[vmi].wl
                {
                    let f = (pkt.flow.0 as usize).min(flows.len() - 1);
                    flows[f].on_ack_received(pkt.meta);
                    last_ack_at[f] = now;
                }
                self.guest_app_wakeup(vm);
            }
            PacketKind::Request => {
                let op = match pkt.meta {
                    META_MC_GET => ServerOp::McGet,
                    META_MC_SET => ServerOp::McSet,
                    META_HTTP_GET => ServerOp::HttpGet,
                    _ => ServerOp::HttpGetSmall,
                };
                if let GuestWl::Server { pending, .. } = &mut self.vms[vmi].wl {
                    pending.push_back(AppRequest {
                        op,
                        flow: pkt.flow.0,
                        meta: pkt.meta,
                    });
                }
                self.guest_app_wakeup(vm);
            }
            PacketKind::Syn => {
                // Kernel-level SYN/ACK, sent straight from softirq context.
                let synack = self
                    .pf
                    .make_meta(pkt.flow, PacketKind::SynAck, 0, self.now, pkt.meta);
                self.enqueue_tx_in_irq(vm, idx, synack);
            }
            PacketKind::EchoRequest => {
                let reply = self.pf.make_meta(
                    pkt.flow,
                    PacketKind::EchoReply,
                    pkt.bytes.saturating_sub(es2_net::packet::HEADER_BYTES),
                    self.now,
                    pkt.meta,
                );
                self.enqueue_tx_in_irq(vm, idx, reply);
            }
            PacketKind::SynAck | PacketKind::EchoReply | PacketKind::Response => {
                // Server-bound guests never receive these in our workloads.
            }
        }
    }

    /// Enqueue a TX packet from IRQ context on the vCPU's own pair; a
    /// required kick is deferred until after EOI.
    fn enqueue_tx_in_irq(&mut self, vm: u32, idx: u32, pkt: Packet) {
        let vmi = vm as usize;
        let qi = self.vms[vmi].tx_pair_for_vcpu(idx);
        while self.vms[vmi].pairs[qi].tx.driver_take_used().is_some() {}
        match self.guest_tx_emit(vm, qi, pkt) {
            Ok(true) => {
                let h = self.vms[vmi].pairs[qi].tx_h;
                let pk = &mut self.vms[vmi].vctx[idx as usize].pending_kicks;
                if !pk.contains(&h) {
                    pk.push(h);
                }
            }
            Ok(false) => {}
            Err(()) => {
                // Ring full: drop (cumulative ACKs tolerate this; data
                // responses are protected by the room checks in
                // select_app_step).
                self.note_tx_drop(vm);
            }
        }
    }

    /// Delayed-ACK timer fired for the receive-test guest.
    pub(crate) fn on_ack_flush(&mut self, vm: u32) {
        let vmi = vm as usize;
        let mut ack: Option<u32> = None;
        if let GuestWl::NetperfRecv {
            flow,
            ack_flush_pending,
            ..
        } = &mut self.vms[vmi].wl
        {
            *ack_flush_pending = false;
            if let Some(c) = flow.flush_delayed_ack() {
                ack = Some(c);
            }
        }
        if let Some(covered) = ack {
            // Timer-context send: enqueue directly; the kick (if needed)
            // wakes vhost without charging a guest exit — at ≤25/s this is
            // noise, and modeling the timer IRQ exit would double-count
            // with the guest-timer model.
            let pkt = self
                .pf
                .make_meta(FlowId(0), PacketKind::Ack, 0, self.now, covered);
            let vmi = vm as usize;
            // Timer context has no owning vCPU: the delayed-ACK path uses
            // pair 0 (the legacy queue).
            if let Ok(true) = self.guest_tx_emit(vm, 0, pkt) {
                let h = self.vms[vmi].pairs[0].tx_h;
                self.kick_vhost(vm, h);
            }
        }
    }

    /// Periodic guest-side TCP retransmission-timeout check (armed only
    /// under an active fault plan). A flow whose ACK clock stalled for a
    /// full RTO had segments (or their ACKs) lost on the faulty wire:
    /// clear the in-flight accounting — the retransmission burst re-enters
    /// through the normal send path — and wake the sender.
    pub(crate) fn on_guest_tcp_timeout(&mut self, vm: u32) {
        let vmi = vm as usize;
        let now = self.now;
        let rto = GUEST_RTO;
        let mut fired = false;
        if let GuestWl::NetperfSend {
            flows, last_ack_at, ..
        } = &mut self.vms[vmi].wl
        {
            for (f, flow) in flows.iter_mut().enumerate() {
                if flow.inflight() > 0 && now.saturating_since(last_ack_at[f]) > rto {
                    let stuck = flow.inflight();
                    flow.on_ack_received(stuck);
                    last_ack_at[f] = now;
                    fired = true;
                }
            }
        }
        if fired {
            self.note_guest_rto(vm);
            self.guest_app_wakeup(vm);
        }
        self.q.push(
            self.now + GUEST_RTO_CHECK,
            crate::machine::Ev::GuestTcpTimeout { vm },
        );
    }
}
