//! Host-side execution: the vhost worker threads.
//!
//! Each worker alternates between handler turns over the queue pairs
//! sharded onto it. The TX handler runs the hybrid (or stock) Algorithm-1
//! machine over the guest's TX queue; the RX handler moves ingress packets
//! from the host backlog into the guest's RX ring. Each per-packet step is
//! a timed segment, and the per-turn dispatch overhead is what makes
//! small-quota polling self-sustaining (the guest refills during the
//! dispatch gap). In passthrough mode a queue owns its worker outright and
//! the shared dispatch hop is elided entirely: the turn begins the moment
//! the worker picks the handler up.

use es2_core::PollDecision;
use es2_net::Packet;
use es2_sched::ThreadId;
use es2_virtio::HandlerId;

use crate::machine::{Body, Ev, Machine, SegKind};
use crate::params::{
    vhost_rx_cost, vhost_tx_cost, SRIOV_HOST_ISR, VHOST_DISPATCH, VHOST_REQUEUE_GAP, VHOST_RX_BURST,
};
use crate::workload::ExtWl;

impl Machine {
    /// A vhost worker thread finished a segment (or was just scheduled)
    /// and has no active work: pop the next handler or sleep.
    pub(crate) fn vhost_continue(&mut self, tid: ThreadId) {
        let Body::Vhost { vm, w } = self.threads[tid.idx()].body else {
            unreachable!("vhost_continue on a vCPU thread");
        };
        let vmi = vm as usize;
        let wi = w as usize;
        if self.vms[vmi].cur_handler[wi].take().is_some() {
            self.note_turn_end(vm, w);
        }
        match self.vms[vmi].worker.next_work(wi) {
            Some(h) => {
                if self.vms[vmi].worker.is_passthrough() {
                    // Queue passthrough: this worker serves exactly one
                    // pair, so there is no handler mux to pay for — skip
                    // the dispatch segment and begin the turn at once.
                    self.vhost_begin_turn(vm, w, h);
                    return;
                }
                // An injected worker stall lengthens the dispatch segment:
                // the thread holds the handler but makes no progress (a
                // host-side hiccup — reclaim, IRQ storm, cgroup throttle).
                let mut dur = VHOST_DISPATCH;
                if let Some(stall) = self.faults.on_worker_dispatch() {
                    dur += stall;
                }
                self.start_segment(tid, SegKind::VhostDispatch { h }, dur);
            }
            None => {
                let sw = self.sched.block(tid, self.now);
                self.apply_switch(sw);
            }
        }
    }

    /// Dispatch overhead done: begin the handler's turn on worker `w`.
    pub(crate) fn vhost_begin_turn(&mut self, vm: u32, w: u32, h: HandlerId) {
        let vmi = vm as usize;
        self.note_turn_begin(vm, w, h);
        self.vms[vmi].cur_handler[w as usize] = Some(h);
        let qi = self.vms[vmi].pair_of(h);
        let is_tx = h.idx() % 2 == 0;
        // Guest trust boundary: validate any ring state the guest claims
        // before the backend touches this queue. A violation quarantines
        // the queue (the `DEVICE_NEEDS_RESET` analog) instead of
        // panicking; every other queue — this VM's included — keeps full
        // service.
        let pair = &mut self.vms[vmi].pairs[qi];
        let verdict = if is_tx {
            pair.tx.device_validate()
        } else {
            pair.rx.device_validate()
        };
        if let Err(err) = verdict {
            self.quarantine_queue(vm, h, err);
            let tid = self.vms[vmi].vhost_tids[w as usize];
            self.vhost_continue(tid);
            return;
        }
        if is_tx {
            let pair = &mut self.vms[vmi].pairs[qi];
            let (hdl, txq) = (&mut pair.tx_handler, &mut pair.tx);
            hdl.begin_turn(txq);
            self.vhost_tx_step(vm, w, qi);
        } else {
            self.vms[vmi].pairs[qi].rx_turn = 0;
            self.vhost_rx_step(vm, w, qi);
        }
    }

    /// Quarantine one queue of `vm` after a ring-validation violation:
    /// drain and break the queue, drop the handler's pending work, and
    /// schedule the guest-side reset handshake. Service for every other
    /// queue (the same VM's siblings and every other VM) continues
    /// untouched.
    fn quarantine_queue(&mut self, vm: u32, h: HandlerId, err: es2_virtio::RingError) {
        let vmi = vm as usize;
        let qi = self.vms[vmi].pair_of(h);
        let is_tx = h.idx() % 2 == 0;
        let pair = &mut self.vms[vmi].pairs[qi];
        let dropped = if is_tx {
            pair.tx.quarantine()
        } else {
            pair.rx.quarantine()
        };
        self.vms[vmi].worker.quarantine(h);
        self.note_quarantine(vm, h, err, dropped);
        self.q.push(
            self.now + self.p.quarantine_reset_delay,
            Ev::GuestQueueReset { vm, h },
        );
    }

    /// One step of a TX handler's polling loop (Algorithm 1 lines
    /// 12–19, with time charged per request).
    fn vhost_tx_step(&mut self, vm: u32, w: u32, qi: usize) {
        let vmi = vm as usize;
        let tid = self.vms[vmi].vhost_tids[w as usize];
        let pair = &mut self.vms[vmi].pairs[qi];
        match pair.tx_handler.poll_next(&mut pair.tx) {
            PollDecision::Process(pkt) => {
                let cost = vhost_tx_cost(pkt.bytes);
                self.start_segment(tid, SegKind::VhostTxPkt { pkt }, cost);
            }
            PollDecision::QuotaExhausted => {
                // Stay in polling mode: the handler waits out its
                // switching cooldown (Algorithm 1 line 16 "waiting to be
                // scheduled") and re-enters the work list; the worker
                // meanwhile serves other handlers or sleeps.
                let h = pair.tx_h;
                let at = self.now + VHOST_REQUEUE_GAP;
                self.q
                    .push(at, crate::machine::Ev::HandlerRequeue { vm, h });
                self.vhost_continue(tid);
            }
            PollDecision::Drained => {
                // Notification re-enabled (back to notification mode for
                // the hybrid handler; stock vhost does this every turn).
                self.vhost_continue(tid);
            }
        }
    }

    /// A TX packet finished host processing on worker `w`: hand it to the
    /// wire and return its descriptor.
    pub(crate) fn complete_vhost_tx(&mut self, vm: u32, w: u32, pkt: Packet) {
        let vmi = vm as usize;
        let h = self.vms[vmi].cur_handler[w as usize].expect("TX completion without a turn");
        let qi = self.vms[vmi].pair_of(h);
        // Return the descriptor; raise a TX-completion interrupt only if
        // the guest armed it (ring-full backpressure).
        let interrupt = self.vms[vmi].pairs[qi].tx.device_push_used(());
        if interrupt {
            let vector = self.vms[vmi].pairs[qi].tx_vector;
            self.deliver_device_msi(vm, vector);
        }
        self.note_tx(vm, pkt.bytes);
        let fault = self.faults.on_packet();
        let arrival = self
            .link_to_ext
            .transmit_faulted(self.now, pkt.bytes, fault);
        // A UDP sink does nothing with an arrival but count it, and the
        // arrival instant is known here: count it now instead of queueing
        // the event. A cluster member keeps the event, so its gate can
        // still forward it to the VM's current host.
        let count_now = self.mig.is_none() && matches!(self.ext[vmi], ExtWl::UdpSink { .. });
        arrival.for_each(|at| {
            if count_now {
                self.udp_sink_arrival(vm, &pkt, at);
            } else {
                self.q.push(at, Ev::ArriveAtExt { vm, pkt });
            }
        });
        self.vhost_tx_step(vm, w, qi);
    }

    /// One step of an RX handler: move a backlog packet into the guest
    /// RX ring.
    fn vhost_rx_step(&mut self, vm: u32, w: u32, qi: usize) {
        let vmi = vm as usize;
        let tid = self.vms[vmi].vhost_tids[w as usize];
        if self.vms[vmi].pairs[qi].rx_turn >= VHOST_RX_BURST {
            // Batch quota: requeue immediately (stock vhost behaviour —
            // no ES2 cooldown on the rx batching path). The handler goes
            // back to its own (assigned) worker.
            let h = self.vms[vmi].pairs[qi].rx_h;
            self.vms[vmi].worker.queue_work(h);
            self.vhost_continue(tid);
            return;
        }
        if self.vms[vmi].pairs[qi].backlog.is_empty() {
            self.vhost_continue(tid);
            return;
        }
        if self.vms[vmi].pairs[qi].rx.avail_pending() == 0 {
            // Out of guest buffers: arm the refill notification and park.
            // The guest's next refill kick requeues this handler.
            if self.vms[vmi].pairs[qi].rx.device_enable_notify() {
                // Race: buffers appeared; keep going.
                self.vms[vmi].pairs[qi].rx.device_disable_notify();
            } else {
                self.vhost_continue(tid);
                return;
            }
        }
        // Graceful refusal instead of panicking on "impossible" states: a
        // quarantined queue returns no buffers even when `avail_pending`
        // said otherwise a moment ago, and the turn simply ends.
        let Some(_buffer) = self.vms[vmi].pairs[qi].rx.device_pop() else {
            self.vhost_continue(tid);
            return;
        };
        let Some(pkt) = self.vms[vmi].pairs[qi].backlog.pop() else {
            self.vhost_continue(tid);
            return;
        };
        let cost = vhost_rx_cost(pkt.bytes);
        self.start_segment(tid, SegKind::VhostRxPkt { pkt }, cost);
    }

    /// An RX packet was copied into the guest by worker `w`: publish it
    /// and maybe interrupt.
    pub(crate) fn complete_vhost_rx(&mut self, vm: u32, w: u32, pkt: Packet) {
        let vmi = vm as usize;
        let h = self.vms[vmi].cur_handler[w as usize].expect("RX completion without a turn");
        let qi = self.vms[vmi].pair_of(h);
        self.vms[vmi].pairs[qi].rx_turn += 1;
        self.note_rx(vm, pkt.bytes);
        let interrupt = self.vms[vmi].pairs[qi].rx.device_push_used(pkt);
        if interrupt {
            let vector = self.vms[vmi].pairs[qi].rx_vector;
            self.deliver_device_msi(vm, vector);
        }
        self.vhost_rx_step(vm, w, qi);
    }

    /// A packet arrived at the host NIC for `vm`.
    ///
    /// Paravirtual: RSS-spread it across the device's RX queues, backlog
    /// it and kick that queue's vhost RX handler. Assigned VF: the device
    /// DMAs straight into the guest's RX ring and raises its interrupt —
    /// through the host ISR (legacy) or posted directly (VT-d PI), per
    /// §VII.
    pub(crate) fn on_arrive_host(&mut self, vm: u32, pkt: Packet) {
        let vmi = vm as usize;
        if self.p.device == crate::params::DeviceKind::AssignedVf {
            // The VF model stays single-queue: pair 0 is the VF ring.
            if self.vms[vmi].pairs[0].rx.device_pop().is_none() {
                // VF RX ring out of buffers: hardware drop.
                return;
            }
            let interrupt = self.vms[vmi].pairs[0].rx.device_push_used(pkt);
            if interrupt {
                if self.cfg.use_pi && !self.vms[vmi].pi_failed {
                    // VT-d PI: posted without hypervisor involvement.
                    let vector = self.vms[vmi].pairs[0].rx_vector;
                    self.deliver_device_msi(vm, vector);
                } else {
                    // Legacy assignment: the host fields the physical IRQ
                    // first, then injects.
                    self.q.push(self.now + SRIOV_HOST_ISR, Ev::VfIrq { vm });
                }
            }
            return;
        }
        let nq = self.vms[vmi].pairs.len() as u32;
        let qi = es2_net::rss_queue(pkt.flow.0, pkt.id, nq) as usize;
        if self.vms[vmi].pairs[qi].backlog.push(pkt) {
            let h = self.vms[vmi].pairs[qi].rx_h;
            let (w, _) = self.vms[vmi].worker.queue_work(h);
            self.note_worker_queued(vm, w as u32);
            let tid = self.vms[vmi].vhost_tids[w];
            self.wake_thread(tid);
        }
        // else: tail-dropped (counted by the NicQueue) — where UDP receive
        // overload loses datagrams.
    }
}
