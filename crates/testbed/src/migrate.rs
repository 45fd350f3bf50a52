//! Live migration and cluster plumbing for a [`Machine`] that is one
//! host of a multi-host cell (see [`crate::cluster`]).
//!
//! # State machine
//!
//! A move of VM `v` from host `S` to host `T` at pause time `t_p` runs
//! the classic pause/copy/resume sequence, with every phase a
//! deterministic function of the VM's state at `t_p`:
//!
//! 1. **Pause** (`S`, at `t_p`): every vCPU thread and the vhost worker
//!    thread are descheduled ([`es2_sched::CfsScheduler::deactivate`] —
//!    running vCPUs take a migration-forced VM exit on the way out, so
//!    the source's redirection engine marks them offline exactly as live
//!    Linux would see `sched_out` notifier fires). The whole `VmState` —
//!    virtio rings, NIC backlog, parked IRQs, PIR/vIRR posted-interrupt
//!    state, hybrid-handler mode, quarantine and backpressure ledgers —
//!    plus every thread's saved segment is packed into a `VmSnapshot`.
//!    The vacated slot becomes a fresh dormant (HLT-idle) VM.
//! 2. **Copy** (wire, `[t_p, t_p + D)`): the snapshot crosses to the
//!    target host with arrival time `t_p + D`, where the blackout
//!    `D = pause + copy_base + copy_per_unit · dirty + resume` scales
//!    with the dirty unit count (ring occupancy + backlog depth) — the
//!    dirty-page analog. `D` always exceeds the cross-lane lookahead.
//! 3. **Resume** (`T`, at `t_p + D`): the snapshot lands in the target
//!    slot (same global index on every host), threads that were active
//!    wake (rebuilding the **target** engine's online list through the
//!    ordinary `sched_in` notifier path), saved segments resume, and the
//!    stale-state scan (`Machine::watchdog_scan_vm`) re-kicks stuck
//!    handlers and re-raises lost MSIs over the reliable watchdog path —
//!    so an MSI that was in flight on the source when the VM left is
//!    re-issued against the target's own online/offline lists.
//!
//! During `[t_p, t_p + D)` the target buffers the slot's arrivals
//! (replayed in order at resume); traffic addressed to a slot that lives
//! elsewhere is forwarded to its host with the finite lookahead.
//! The external peer never moves on migration — post-move guest↔peer
//! traffic permanently crosses hosts in both directions.
//!
//! **Abort** (mid-copy failure, the move the fault plan's
//! `migration_abort_nth` names): the source keeps the snapshot, buffers
//! its own arrivals for the same blackout, and resumes the VM locally —
//! a rollback, not a loss. **Host crash**: the host freezes at the crash instant; victims
//! cold-restart on surviving hosts with fresh state (see
//! `Machine::on_cold_restart`).

use es2_apic::Vector;
use es2_hypervisor::{InterruptPath, Vcpu};
use es2_net::Packet;
use es2_sim::{SimDuration, SimTime};
use es2_virtio::{VhostPool, Virtqueue};

use es2_core::HybridHandler;
use es2_sched::{ThreadId, ThreadState};

use crate::backpressure::KickBucket;
use crate::machine::{Ev, Machine, QueuePair, Segment, VcpuCtx, VmState};
use crate::params::{DELAYED_ACK_TIMEOUT, HOST_BACKLOG, KICK_BURST, KICK_RATE, RING_SIZE};
use crate::telemetry::MsiOrigin;
use crate::workload::{ExtWl, GuestWl, WorkloadSpec};

// Cost model for one migration's blackout window. All sim-time
// constants, so the blackout is a pure function of the paused state.
/// Fixed pause-phase cost (deschedule + device quiesce).
pub(crate) const MIG_PAUSE: SimDuration = SimDuration::from_micros(30);
/// Fixed copy-phase floor (control channel round trips).
pub(crate) const MIG_COPY_BASE: SimDuration = SimDuration::from_micros(80);
/// Copy cost per dirty unit (one ring entry or backlog packet).
pub(crate) const MIG_COPY_PER_UNIT: SimDuration = SimDuration::from_nanos(150);
/// Fixed resume-phase cost (install + re-arm on the target).
pub(crate) const MIG_RESUME: SimDuration = SimDuration::from_micros(40);

/// Everything one migration (or crash recovery) run accounts for on one
/// host. Sim-time quantities, recorded unconditionally (traced and
/// untraced runs stay byte-identical because the ledger never feeds back
/// into simulation decisions).
#[derive(Clone, Debug, Default)]
pub struct MigLedger {
    /// Moves that departed this host (snapshot shipped).
    pub out: u64,
    /// Moves that resumed on this host.
    pub resumed: u64,
    /// Planned moves that aborted mid-copy and rolled back here.
    pub aborts: u64,
    /// Stale MSIs re-raised here after arriving from another host.
    pub retargets: u64,
    /// Crash victims cold-restarted on this host.
    pub restarts: u64,
    /// Churn arrivals booted clean on this host.
    pub boots: u64,
    /// Churn tenants torn down here at end of lifetime.
    pub departs: u64,
    /// Stuck boots rolled back here after their handshake timeout.
    pub boot_timeouts: u64,
    /// Control-plane operations that arrived against a slot in the wrong
    /// state (a missing snapshot, a teardown of a non-resident slot).
    /// Each is a typed error recorded instead of a panic; `liveness`
    /// promotes any entry to a fatal violation.
    pub ctl_errors: Vec<String>,
    /// Full blackout per resume landing here (nanoseconds).
    pub blackout_ns: Vec<u64>,
    /// Pause-phase cost per departure from this host (nanoseconds).
    pub pause_ns: Vec<u64>,
    /// Copy-phase cost per departure from this host (nanoseconds).
    pub copy_ns: Vec<u64>,
    /// Resume-phase cost per resume landing here (nanoseconds).
    pub resume_ns: Vec<u64>,
}

impl MigLedger {
    /// Fold another host's ledger into this one (cluster-level report).
    pub(crate) fn merge(&mut self, o: &MigLedger) {
        self.out += o.out;
        self.resumed += o.resumed;
        self.aborts += o.aborts;
        self.retargets += o.retargets;
        self.restarts += o.restarts;
        self.boots += o.boots;
        self.departs += o.departs;
        self.boot_timeouts += o.boot_timeouts;
        self.ctl_errors.extend_from_slice(&o.ctl_errors);
        self.blackout_ns.extend_from_slice(&o.blackout_ns);
        self.pause_ns.extend_from_slice(&o.pause_ns);
        self.copy_ns.extend_from_slice(&o.copy_ns);
        self.resume_ns.extend_from_slice(&o.resume_ns);
    }
}

/// Arrivals buffered while a slot is mid-blackout, replayed at resume
/// (MSIs first, then packets, each in arrival order).
#[derive(Debug, Default)]
pub(crate) struct IncomingBuf {
    pub(crate) pkts: Vec<Packet>,
    pub(crate) msis: Vec<Vector>,
}

/// A cross-host emission staged by the event gate; `Cluster::run`
/// drains these after every step and routes them via the location
/// timeline.
pub(crate) enum CrossOut {
    /// Guest-bound wire arrival for a slot that lives on another host.
    GuestPkt { vm: u32, at: SimTime, pkt: Packet },
    /// Peer-bound packet from a guest whose external peer stayed home.
    ExtPkt { vm: u32, at: SimTime, pkt: Packet },
    /// An in-flight MSI that outlived its VM's residency here; re-raised
    /// on the current host over the reliable path.
    StaleMsi {
        vm: u32,
        at: SimTime,
        vector: Vector,
    },
    /// A paused VM's full state, arriving when the copy phase ends.
    Snapshot {
        vm: u32,
        at: SimTime,
        snap: Box<VmSnapshot>,
    },
}

/// A paused VM packed for transport (or local abort-rollback).
pub(crate) struct VmSnapshot {
    pub(crate) state: VmState,
    pub(crate) spec: WorkloadSpec,
    /// Saved per-vCPU segments (preempted remainders travel with the VM).
    pub(crate) vcpu_segs: Vec<Option<Segment>>,
    /// Which vCPUs were running/runnable at pause (woken at resume).
    pub(crate) vcpu_active: Vec<bool>,
    /// Saved per-vhost-worker segments (one per sharded worker thread).
    pub(crate) vhost_segs: Vec<Option<Segment>>,
    /// Which vhost workers were running/runnable at pause.
    pub(crate) vhost_active: Vec<bool>,
    /// Full blackout for this move (pause + copy + resume).
    pub(crate) blackout: SimDuration,
    pub(crate) resume_cost: SimDuration,
}

/// Per-machine cluster state. `Machine::mig` is `None` on single-host
/// machines, so the whole layer costs one pointer test per gated event.
pub(crate) struct MigState {
    /// Slot's guest currently executes on this host.
    pub(crate) guest_local: Vec<bool>,
    /// Slot's external peer lives on this host.
    pub(crate) ext_local: Vec<bool>,
    /// Mid-blackout arrival buffers (`Some` between expect and resume).
    pub(crate) incoming: Vec<Option<IncomingBuf>>,
    /// Snapshots staged for an [`Ev::MigrateArrive`] at this host.
    pub(crate) staged: Vec<Option<Box<VmSnapshot>>>,
    /// The cell's workload per global slot: what a cold restart or a
    /// clean churn boot installs.
    slot_specs: Vec<WorkloadSpec>,
    /// Slot was torn down on this host at least once (departure or
    /// boot-timeout rollback). A reclaimed, non-resident slot drops
    /// tenant-bound traffic at the host edge instead of forwarding it
    /// (the tenant is gone; forwarding would bounce against the stale
    /// timeline forever), and `liveness` holds it to the conservation
    /// invariant: zero retained threads, ring entries, vectors, or
    /// vhost work.
    pub(crate) reclaimed: Vec<bool>,
    /// Cross-host emissions staged by the gate, drained by the cluster.
    pub(crate) cross_out: Vec<CrossOut>,
    pub(crate) ledger: MigLedger,
}

/// What [`Machine::rebuild_slot`] turns a slot into.
#[derive(Clone, Copy)]
enum Rebuild {
    /// Fully live with fresh state: RX rings pre-filled, a fresh
    /// external peer rebuilt locally, the guest booted like bootstrap
    /// (cold restarts and clean churn boots).
    Live(WorkloadSpec),
    /// A stuck boot: the vCPUs come up (firmware spin, then halt) but the
    /// virtio handshake never completes — no device, no external peer,
    /// no traffic. The slot counts against its host's capacity until the
    /// handshake timeout tears it back down.
    Stuck,
    /// Torn down and reclaimed: a dormant slot with empty rings that
    /// holds nothing (departures and boot-timeout rollbacks).
    Dormant,
}

impl Machine {
    /// Turn this machine into one host of a multi-host cell, whose
    /// global slot `g` runs `slot_specs[g]` wherever it boots. Called
    /// once right after construction; every slot starts fully local
    /// (bit-identical behavior until `mark_remote` and the first control
    /// event).
    pub(crate) fn enable_cluster(&mut self, slot_specs: Vec<WorkloadSpec>) {
        let n = self.topo.num_vms as usize;
        self.mig = Some(Box::new(MigState {
            guest_local: vec![true; n],
            ext_local: vec![true; n],
            incoming: (0..n).map(|_| None).collect(),
            staged: (0..n).map(|_| None).collect(),
            slot_specs,
            reclaimed: vec![false; n],
            cross_out: Vec::new(),
            ledger: MigLedger::default(),
        }));
    }

    fn mig_mut(&mut self) -> &mut MigState {
        self.mig.as_mut().expect("cluster machinery not enabled")
    }

    /// Mark a slot as resident elsewhere (guest and peer both remote).
    pub(crate) fn mark_remote(&mut self, vm: u32) {
        let m = self.mig_mut();
        m.guest_local[vm as usize] = false;
        m.ext_local[vm as usize] = false;
    }

    /// Whether any cross-host emission is staged since the last step.
    pub(crate) fn has_cross_out(&self) -> bool {
        self.mig.as_ref().is_some_and(|m| !m.cross_out.is_empty())
    }

    /// Drain the cross-host emissions staged since the last step (a
    /// cluster member only: check [`Self::has_cross_out`] first).
    pub(crate) fn take_cross_out(&mut self) -> Vec<CrossOut> {
        std::mem::take(&mut self.mig_mut().cross_out)
    }

    /// Accept a peer-bound packet forwarded from the VM's current host.
    pub(crate) fn receive_cross_ext(&mut self, at: SimTime, vm: u32, pkt: Packet) {
        self.q.push(at, Ev::ArriveAtExt { vm, pkt });
    }

    /// Accept a stale MSI forwarded from a host the VM left.
    pub(crate) fn receive_cross_msi(&mut self, at: SimTime, vm: u32, vector: Vector) {
        self.q.push(at, Ev::RetargetMsi { vm, vector });
    }

    /// Accept a migrating VM's snapshot, staging its resume at `at`.
    pub(crate) fn receive_snapshot(&mut self, at: SimTime, vm: u32, snap: Box<VmSnapshot>) {
        let m = self.mig_mut();
        debug_assert!(m.staged[vm as usize].is_none(), "double-staged snapshot");
        m.staged[vm as usize] = Some(snap);
        self.q.push(at, Ev::MigrateArrive { vm });
    }

    /// The migration ledger, if this machine is a cluster member.
    pub(crate) fn mig_ledger(&self) -> Option<&MigLedger> {
        self.mig.as_ref().map(|m| &m.ledger)
    }

    // -----------------------------------------------------------------
    // Event gate
    // -----------------------------------------------------------------

    /// Filter one event through the cluster gate (only called when
    /// `mig` is `Some`). Returns whether to process it locally; `false`
    /// if it was forwarded to another host, buffered for resume, or
    /// dropped (re-armed at resume by construction). Queues nothing, so
    /// the event's slot still holds it afterwards.
    pub(crate) fn mig_gate(&mut self, ev: Ev) -> bool {
        let at = self.now + crate::cluster::CROSS_LANE_LOOKAHEAD;
        let m = self.mig.as_mut().unwrap();
        let (vm, fwd) = match ev {
            Ev::ArriveAtHost { vm, pkt } => match m.incoming[vm as usize].as_mut() {
                Some(buf) => {
                    buf.pkts.push(pkt);
                    return false;
                }
                None if m.guest_local[vm as usize] => return true,
                None => (vm, CrossOut::GuestPkt { vm, at, pkt }),
            },
            Ev::ArriveAtExt { vm, pkt } if !m.ext_local[vm as usize] => {
                (vm, CrossOut::ExtPkt { vm, at, pkt })
            }
            // A legacy assigned-device IRQ is a device MSI in flight: it
            // follows the VM like one, as the RX vector over the reliable
            // path.
            Ev::DelayedMsi { vm, .. } | Ev::RetargetMsi { vm, .. } | Ev::VfIrq { vm } => {
                let vector = match ev {
                    Ev::DelayedMsi { vector, .. } | Ev::RetargetMsi { vector, .. } => vector,
                    _ => self.vms[vm as usize].pairs[0].rx_vector,
                };
                match m.incoming[vm as usize].as_mut() {
                    Some(buf) => {
                        buf.msis.push(vector);
                        return false;
                    }
                    None if m.guest_local[vm as usize] => return true,
                    None => (vm, CrossOut::StaleMsi { vm, at, vector }),
                }
            }
            // Guest-side chains whose state travels inside the snapshot:
            // a stale instance addressed to a slot that is mid-blackout
            // or gone is dropped — resume re-arms each from the carried
            // state (ack_flush_pending, needs_reset, throttle bucket,
            // stuck-handler scan, RTO chain).
            Ev::DelayedKick { vm, .. }
            | Ev::ThrottledKick { vm, .. }
            | Ev::HandlerRequeue { vm, .. }
            | Ev::GuestQueueReset { vm, .. }
            | Ev::AckFlush { vm }
            | Ev::GuestTcpTimeout { vm } => {
                let vmi = vm as usize;
                return m.guest_local[vmi] && m.incoming[vmi].is_none();
            }
            _ => return true,
        };
        // The tenant was torn down here: its old flows drop at the host
        // edge rather than bouncing against the stale location timeline.
        if !m.reclaimed[vm as usize] {
            m.cross_out.push(fwd);
        }
        false
    }

    // -----------------------------------------------------------------
    // Pause / resume
    // -----------------------------------------------------------------

    /// Deschedule and pack `vm`, leaving a fresh dormant slot behind.
    /// Running vCPUs take a migration-forced exit (the redirection engine
    /// sees them go offline); every thread's saved segment, the virtio rings, parked
    /// IRQs, posted-interrupt and ledger state travel in the snapshot.
    pub(crate) fn pause_vm(&mut self, vm: u32) -> Box<VmSnapshot> {
        let vmi = vm as usize;
        let vcpu_tids = self.vms[vmi].vcpu_tids.clone();
        let vhost_tids = self.vms[vmi].vhost_tids.clone();

        let mut vcpu_active = Vec::with_capacity(vcpu_tids.len());
        for &tid in &vcpu_tids {
            vcpu_active.push(self.sched.entity(tid).state != ThreadState::Sleeping);
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }
        let mut vhost_active = Vec::with_capacity(vhost_tids.len());
        for &tid in &vhost_tids {
            vhost_active.push(self.sched.entity(tid).state != ThreadState::Sleeping);
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }

        // Saved segments travel with the VM; any pending SegDone dies
        // via the generation bump.
        let mut vcpu_segs = Vec::with_capacity(vcpu_tids.len());
        for &tid in &vcpu_tids {
            self.threads[tid.idx()].gen.bump();
            vcpu_segs.push(self.threads[tid.idx()].seg.take());
        }
        let mut vhost_segs = Vec::with_capacity(vhost_tids.len());
        for &tid in &vhost_tids {
            self.threads[tid.idx()].gen.bump();
            vhost_segs.push(self.threads[tid.idx()].seg.take());
        }

        let dirty = {
            let s = &self.vms[vmi];
            s.pairs
                .iter()
                .map(|p| {
                    p.tx.avail_pending() as u64
                        + p.tx.used_pending() as u64
                        + p.rx.avail_pending() as u64
                        + p.rx.used_pending() as u64
                        + p.backlog.len() as u64
                })
                .sum::<u64>()
        };
        let copy_cost = MIG_COPY_BASE
            + SimDuration::from_nanos(MIG_COPY_PER_UNIT.as_nanos().saturating_mul(dirty));
        let blackout = MIG_PAUSE + copy_cost + MIG_RESUME;
        self.note_mig_pause(vm, dirty, MIG_PAUSE, copy_cost);

        let spec = std::mem::replace(&mut self.specs[vmi], WorkloadSpec::IdleQuiet);
        let fresh = Self::blank_vm_state(
            &self.p,
            &self.cfg,
            &WorkloadSpec::IdleQuiet,
            false,
            vcpu_tids,
            vhost_tids,
        );
        let state = self.replace_state(vm, fresh);
        {
            let m = self.mig.as_mut().unwrap();
            m.ledger.pause_ns.push(MIG_PAUSE.as_nanos());
            m.ledger.copy_ns.push(copy_cost.as_nanos());
        }

        Box::new(VmSnapshot {
            state,
            spec,
            vcpu_segs,
            vcpu_active,
            vhost_segs,
            vhost_active,
            blackout,
            resume_cost: MIG_RESUME,
        })
    }

    /// Install and resume a snapshot in slot `vm` on this host.
    pub(crate) fn resume_vm(&mut self, vm: u32, snap: Box<VmSnapshot>) {
        let vmi = vm as usize;
        let vcpu_tids = self.vms[vmi].vcpu_tids.clone();
        let vhost_tids = self.vms[vmi].vhost_tids.clone();
        let snap = *snap;

        let mut st = snap.state;
        st.vcpu_tids = vcpu_tids.clone();
        st.vhost_tids = vhost_tids.clone();
        // Any coalesced throttle wake died with the source's queue; the
        // next kick re-enters admission from the carried bucket state.
        for pair in st.pairs.iter_mut() {
            pair.throttle_armed = [false; 2];
        }
        self.replace_state(vm, st);
        self.specs[vmi] = snap.spec;

        for (i, seg) in snap.vcpu_segs.into_iter().enumerate() {
            let tid = vcpu_tids[i];
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = seg;
        }
        for (w, seg) in snap.vhost_segs.into_iter().enumerate() {
            let tid = vhost_tids[w];
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = seg;
        }

        let buf = {
            let m = self.mig.as_mut().unwrap();
            m.guest_local[vmi] = true;
            // A live tenant arrived: the slot is no longer a reclaimed
            // sink (its traffic must forward again if it moves on).
            m.reclaimed[vmi] = false;
            m.ledger.resumed += 1;
            m.ledger.blackout_ns.push(snap.blackout.as_nanos());
            m.ledger.resume_ns.push(snap.resume_cost.as_nanos());
            m.incoming[vmi].take()
        };

        self.note_mig_resume(vm, snap.resume_cost, snap.blackout);

        // Wake what was active at pause. sched_in notifications rebuild
        // this host's online list; parked IRQs flush on the first wake.
        for (i, active) in snap.vcpu_active.iter().enumerate() {
            if *active {
                self.wake_thread(vcpu_tids[i]);
            }
        }
        for (w, active) in snap.vhost_active.iter().enumerate() {
            if *active || self.vms[vmi].worker.has_work_on(w) {
                self.wake_thread(vhost_tids[w]);
            }
        }

        // Stale-state scan: the exact watchdog pass, run synchronously.
        // Re-kicks stuck handlers and re-raises lost MSIs through
        // route_and_deliver_msi — resolving against the *target*
        // engine's freshly rebuilt lists.
        self.watchdog_scan_vm(vm);

        // Polling-mode handlers whose requeue event died on the source
        // (the watchdog scan only covers notification mode), and
        // quarantined rings whose DEVICE_NEEDS_RESET handshake's pending
        // reset event died with the source queue — per pair.
        for qi in 0..self.vms[vmi].pairs.len() {
            let tx_h = self.vms[vmi].pairs[qi].tx_h;
            let rx_h = self.vms[vmi].pairs[qi].rx_h;
            if !self.vms[vmi].pairs[qi].tx.is_broken()
                && self.vms[vmi].pairs[qi].tx.avail_pending() > 0
                && !self.vms[vmi].worker.is_queued(tx_h)
                && !self.vms[vmi].cur_handler.contains(&Some(tx_h))
            {
                let (w, _) = self.vms[vmi].worker.queue_work(tx_h);
                self.wake_thread(vhost_tids[w]);
            }
            if self.vms[vmi].pairs[qi].tx.needs_reset() {
                self.q.push(
                    self.now + self.p.quarantine_reset_delay,
                    Ev::GuestQueueReset { vm, h: tx_h },
                );
            }
            if self.vms[vmi].pairs[qi].rx.needs_reset() {
                self.q.push(
                    self.now + self.p.quarantine_reset_delay,
                    Ev::GuestQueueReset { vm, h: rx_h },
                );
            }
        }

        // Delayed-ACK flush and TCP RTO chains, re-armed from carried
        // workload state (their timer events died on the source).
        if matches!(
            self.vms[vmi].wl,
            GuestWl::NetperfRecv {
                ack_flush_pending: true,
                ..
            }
        ) {
            self.q
                .push(self.now + DELAYED_ACK_TIMEOUT, Ev::AckFlush { vm });
        }
        self.arm_guest_rto(vm);

        // Replay the blackout's buffered arrivals: stale MSIs first over
        // the reliable path, then packets in arrival order.
        if let Some(buf) = buf {
            for vector in buf.msis {
                self.on_retarget_msi(vm, vector);
            }
            for pkt in buf.pkts {
                self.on_arrive_host(vm, pkt);
            }
        }
    }

    // -----------------------------------------------------------------
    // Event handlers
    // -----------------------------------------------------------------

    /// Record a control-plane typed error: an operation arrived against
    /// a slot in the wrong state (a snapshot missing at its arrival, a
    /// teardown of a non-resident slot). Once slots free mid-run these
    /// paths are reachable, so they must not panic — `liveness` promotes
    /// every recorded entry to a fatal violation instead (the same
    /// discipline as the vhost panic audit).
    fn ctl_error(&mut self, vm: u32, msg: String) {
        self.note_breadcrumb(vm, "ctl-error", 0);
        self.mig_mut().ledger.ctl_errors.push(msg);
    }

    pub(crate) fn on_migrate_start(&mut self, vm: u32, abort: bool) {
        let vmi = vm as usize;
        let snap = self.pause_vm(vm);
        let blackout = snap.blackout;
        let at = self.now + blackout;
        let kind = if abort { "mig-abort" } else { "migrate-start" };
        self.note_control(vm, kind, blackout.as_nanos());
        if abort {
            // Mid-copy failure: the move rolls back. The source keeps
            // the snapshot, rides out the same blackout locally (pause +
            // attempted copy + resume), and resumes in place.
            let m = self.mig_mut();
            m.ledger.aborts += 1;
            m.incoming[vmi] = Some(IncomingBuf::default());
            m.staged[vmi] = Some(snap);
            self.q.push(at, Ev::MigrateArrive { vm });
        } else {
            let m = self.mig_mut();
            m.ledger.out += 1;
            m.guest_local[vmi] = false;
            m.cross_out.push(CrossOut::Snapshot { vm, at, snap });
        }
    }

    pub(crate) fn on_migrate_arrive(&mut self, vm: u32) {
        let snap = match self.mig_mut().staged[vm as usize].take() {
            Some(s) => s,
            None => {
                self.ctl_error(
                    vm,
                    format!("MigrateArrive for vm{vm} without a staged snapshot"),
                );
                return;
            }
        };
        self.note_control(vm, "migrate-arrive", 0);
        self.resume_vm(vm, snap);
    }

    pub(crate) fn on_migrate_expect(&mut self, vm: u32) {
        let m = self.mig_mut();
        m.incoming[vm as usize].get_or_insert_with(IncomingBuf::default);
    }

    /// Re-raise a stale MSI on this host over the reliable watchdog
    /// path, resolved against this host's own online/offline lists (the
    /// gate already forwarded or buffered it if the slot is not local).
    pub(crate) fn on_retarget_msi(&mut self, vm: u32, vector: Vector) {
        self.mig_mut().ledger.retargets += 1;
        self.route_and_deliver_msi(vm, vector, MsiOrigin::Retarget);
    }

    pub(crate) fn on_ext_retire(&mut self, vm: u32) {
        // The peer's guest crash-restarted on another host, which
        // rebuilt the peer there; this orphan goes quiet (its pending
        // sends no-op on the Idle workload).
        self.ext[vm as usize] = ExtWl::Idle;
        self.note_breadcrumb(vm, "ext-retire", 0);
    }

    /// A crash victim cold-restarts here: fresh VM state, fresh rings,
    /// and a fresh external peer rebuilt locally (the old one died with
    /// the crashed host or is retired). In-flight state of the crashed
    /// host is gone — this is disaster recovery, not live migration —
    /// but the restarted VM regains full forward progress.
    pub(crate) fn on_cold_restart(&mut self, vm: u32) {
        let m = self.mig_mut();
        m.ledger.restarts += 1;
        let spec = m.slot_specs[vm as usize];
        self.rebuild_slot(vm, Rebuild::Live(spec), "cold-restart");
    }

    /// A churn arrival's boot lands here: a clean boot is a fresh VM
    /// exactly like a cold restart; a stuck boot parks mid-handshake and
    /// occupies the slot until its timeout rolls it back.
    pub(crate) fn on_vm_boot(&mut self, vm: u32, stuck: bool) {
        let m = self.mig_mut();
        let to = if stuck {
            Rebuild::Stuck
        } else {
            m.ledger.boots += 1;
            Rebuild::Live(m.slot_specs[vm as usize])
        };
        self.rebuild_slot(vm, to, "vm-boot");
    }

    /// Churn tenant `vm`'s lifetime ended: tear it down and reclaim.
    pub(crate) fn on_vm_depart(&mut self, vm: u32) {
        if self.teardown_vm(vm, "vm-depart") {
            self.mig_mut().ledger.departs += 1;
        }
    }

    /// A stuck boot's handshake timer fired: roll the partial boot back.
    pub(crate) fn on_boot_timeout(&mut self, vm: u32) {
        if self.teardown_vm(vm, "boot-timeout") {
            self.mig_mut().ledger.boot_timeouts += 1;
        }
    }

    /// Tear resident slot `vm` down to [`Rebuild::Dormant`]. Returns
    /// `false` (with a typed error recorded) if the slot is not resident
    /// here.
    fn teardown_vm(&mut self, vm: u32, label: &'static str) -> bool {
        if !self.mig_mut().guest_local[vm as usize] {
            self.ctl_error(vm, format!("{label} for vm{vm} that is not resident here"));
            return false;
        }
        self.rebuild_slot(vm, Rebuild::Dormant, label);
        true
    }

    /// Rebuild slot `vm` as `to`, the one path for every boot, stuck
    /// boot and teardown. Every thread the slot holds is descheduled
    /// first — running vCPUs take a forced exit on the way out, exactly
    /// like a migration pause, and a dormant slot's vCPU may still be
    /// awake waiting for its first slice on a busy host (a no-op on
    /// sleeping threads) — and pending segment completions die via the
    /// generation bump. The slot then gets fresh state, so the
    /// conservation invariant holds by construction and anything a
    /// teardown misses shows up against it. `label` is the control
    /// breadcrumb (its argument is 1 for a stuck boot).
    fn rebuild_slot(&mut self, vm: u32, to: Rebuild, label: &'static str) {
        let vmi = vm as usize;
        let vcpu_tids = self.vms[vmi].vcpu_tids.clone();
        let vhost_tids = self.vms[vmi].vhost_tids.clone();
        for &tid in vcpu_tids.iter().chain(&vhost_tids) {
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }
        for &tid in vcpu_tids.iter().chain(&vhost_tids) {
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = None;
        }
        let (spec, live) = match to {
            Rebuild::Live(spec) => (spec, true),
            Rebuild::Stuck | Rebuild::Dormant => (WorkloadSpec::IdleQuiet, false),
        };
        let dormant = matches!(to, Rebuild::Dormant);
        let fresh = Self::blank_vm_state(&self.p, &self.cfg, &spec, live, vcpu_tids, vhost_tids);
        self.replace_state(vm, fresh);
        self.ext[vmi] = if live {
            ExtWl::for_spec(&spec, self.rng.next_u64())
        } else {
            ExtWl::Idle
        };
        self.specs[vmi] = spec;
        let m = self.mig_mut();
        m.guest_local[vmi] = !dormant;
        m.ext_local[vmi] = live;
        m.incoming[vmi] = None;
        m.reclaimed[vmi] = dormant;
        self.note_control(vm, label, matches!(to, Rebuild::Stuck) as u64);
        if !dormant {
            self.boot_vcpus(vm);
        }
        if live {
            self.bootstrap_external_vm(vm);
            self.arm_guest_rto(vm);
        }
    }

    // -----------------------------------------------------------------
    // State construction
    // -----------------------------------------------------------------

    /// Install `state` in slot `vm` and return what the slot held: the
    /// one path for a migration pause, a resume and a rebuild. The
    /// pending interrupts and kicks of the old state leave with it.
    fn replace_state(&mut self, vm: u32, state: VmState) -> VmState {
        self.note_slot_replaced(vm);
        std::mem::replace(&mut self.vms[vm as usize], state)
    }

    /// A freshly-initialized [`VmState`] on the given threads: the
    /// constructor builds every VM with it, and a cold restart, churn
    /// boot, teardown or migration pause rebuilds a slot with it.
    /// `prefill_rx` pre-fills the RX ring like a booting guest driver; a
    /// dormant vacated slot keeps empty rings so ring-conservation
    /// invariants hold trivially.
    pub(crate) fn blank_vm_state(
        p: &crate::params::Params,
        cfg: &es2_core::EventPathConfig,
        spec: &WorkloadSpec,
        prefill_rx: bool,
        vcpu_tids: Vec<ThreadId>,
        vhost_tids: Vec<ThreadId>,
    ) -> VmState {
        let path = if cfg.use_pi {
            InterruptPath::Posted
        } else {
            InterruptPath::Emulated
        };
        let nv = vcpu_tids.len();
        let num_workers = vhost_tids.len();
        let mut vcpus = Vec::with_capacity(nv);
        let mut vctx = Vec::with_capacity(nv);
        for _ in 0..nv {
            vcpus.push(Vcpu::new(path));
            vctx.push(VcpuCtx::default());
        }
        let mut worker = VhostPool::new(num_workers, p.shard_policy);
        let num_pairs = p.queues_per_vm.max(1);
        let mut pairs = Vec::with_capacity(num_pairs as usize);
        for qi in 0..num_pairs {
            // Pair q is owned by (and its MSIs steered at) vCPU q%N.
            let owner = qi % nv as u32;
            let (tx_h, rx_h) = worker.register_pair(qi, owner);
            let mut tx = Virtqueue::new(RING_SIZE);
            let mut rx = Virtqueue::new(RING_SIZE);
            // Guest TX completions are reclaimed in the xmit path; TX
            // interrupts armed only when the ring fills. RX refill kicks
            // stay unarmed unless vhost runs out of buffers.
            tx.driver_disable_interrupts();
            if prefill_rx {
                rx.driver_add_n(RING_SIZE, ()).expect("ring has room");
            }
            rx.device_disable_notify();
            let tx_handler = match cfg.hybrid {
                Some(h) => HybridHandler::new(h),
                None => HybridHandler::stock(),
            };
            pairs.push(QueuePair {
                tx_h,
                rx_h,
                tx,
                rx,
                tx_handler,
                rx_turn: 0,
                backlog: es2_net::NicQueue::new(HOST_BACKLOG),
                tx_vector: 0x41 + (2 * qi) as u8,
                rx_vector: 0x42 + (2 * qi) as u8,
                affinity_vcpu: owner,
                blocked_tx_full: false,
                kick_bucket: p
                    .backpressure
                    .then(|| KickBucket::new(KICK_RATE, KICK_BURST)),
                throttle_armed: [false; 2],
            });
        }
        VmState {
            vcpus,
            vcpu_tids,
            vctx,
            vhost_tids,
            worker,
            cur_handler: vec![None; num_workers],
            pairs,
            guest_idles: spec.guest_idles(),
            wl: GuestWl::for_spec(spec),
            parked_irqs: Vec::new(),
            pi_failed: false,
            ledger: crate::telemetry::VmLedger::new(nv),
        }
    }
}
