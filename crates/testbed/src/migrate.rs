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
//!    the source router marks them offline exactly as live Linux would
//!    see `sched_out` notifier fires). The whole `VmState` — virtio
//!    rings, NIC backlog, parked IRQs, PIR/vIRR posted-interrupt state,
//!    hybrid-handler mode, quarantine and backpressure ledgers — plus
//!    every thread's saved segment is packed into a `VmSnapshot`. The
//!    vacated slot becomes a fresh dormant (HLT-idle) VM.
//! 2. **Copy** (wire, `[t_p, t_p + D)`): the snapshot crosses the lane
//!    mailbox with arrival time `t_p + D`, where the blackout
//!    `D = pause + copy_base + copy_per_unit · dirty + resume` scales
//!    with the dirty unit count (ring occupancy + backlog depth) — the
//!    dirty-page analog. `D` always exceeds the cross-lane lookahead.
//! 3. **Resume** (`T`, at `t_p + D`): the snapshot lands in the target
//!    slot (same global index on every host), threads that were active
//!    wake (rebuilding the **target** router's online list through the
//!    ordinary `sched_in` notifier path), saved segments resume, and the
//!    stale-state scan (`Machine::watchdog_scan_vm`) re-kicks stuck
//!    handlers and re-raises lost MSIs over the reliable watchdog path —
//!    so an MSI that was in flight on the source when the VM left is
//!    re-issued against the target's own online/offline lists.
//!
//! During `[t_p, t_p + D)` the target buffers the slot's arrivals
//! (replayed in order at resume); traffic addressed to a slot that lives
//! elsewhere is forwarded across the mailbox with the finite lookahead.
//! The external peer never moves on migration — post-move guest↔peer
//! traffic permanently crosses hosts in both directions.
//!
//! **Abort** (mid-copy failure, decided by the fault plan's migration
//! stream): the source keeps the snapshot, buffers its own arrivals for
//! the same blackout, and resumes the VM locally — a rollback, not a
//! loss. **Host crash**: the lane freezes at the crash instant; victims
//! cold-restart on surviving hosts with fresh state (see
//! `Machine::on_cold_restart`).

use std::collections::VecDeque;

use es2_apic::Vector;
use es2_hypervisor::{InterruptPath, Vcpu, VcpuId};
use es2_net::Packet;
use es2_sim::{SimDuration, SimTime};
use es2_virtio::{VhostPool, Virtqueue, VirtqueueConfig};

use es2_core::HybridHandler;
use es2_sched::{ThreadId, ThreadState};

use crate::machine::{Ev, Machine, QueuePair, Segment, VcpuCtx, VmState};
use crate::telemetry::MsiOrigin;
use crate::workload::{GuestWl, WorkloadSpec};

/// Cost model for one migration's blackout window. All sim-time
/// constants, so the blackout is a pure function of the paused state.
#[derive(Clone, Copy, Debug)]
pub struct MigCosts {
    /// Fixed pause-phase cost (deschedule + device quiesce).
    pub pause: SimDuration,
    /// Fixed copy-phase floor (control channel round trips).
    pub copy_base: SimDuration,
    /// Copy cost per dirty unit (one ring entry or backlog packet).
    pub copy_per_unit: SimDuration,
    /// Fixed resume-phase cost (install + re-arm on the target).
    pub resume: SimDuration,
}

impl Default for MigCosts {
    fn default() -> Self {
        MigCosts {
            pause: SimDuration::from_micros(30),
            copy_base: SimDuration::from_micros(80),
            copy_per_unit: SimDuration::from_nanos(150),
            resume: SimDuration::from_micros(40),
        }
    }
}

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
    /// state (stale plan entry, missing snapshot/spec, teardown of a
    /// non-resident slot). Each is a typed error recorded instead of a
    /// panic; `liveness` promotes any entry to a fatal violation.
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

/// One planned out-migration, popped in order by [`Ev::MigrateStart`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlannedOut {
    /// Predrawn mid-copy abort decision (fault plan migration stream).
    pub(crate) abort: bool,
}

/// Arrivals buffered while a slot is mid-blackout, replayed at resume
/// (MSIs first, then packets, each in arrival order).
#[derive(Debug, Default)]
pub(crate) struct IncomingBuf {
    pub(crate) pkts: Vec<Packet>,
    pub(crate) msis: Vec<Vector>,
}

/// A cross-host emission staged by the event gate; the owning lane
/// drains these after every step and routes them via the shared
/// location timeline.
pub(crate) enum CrossOut {
    /// Guest-bound wire arrival for a slot that lives on another host.
    GuestPkt { vm: u32, at: SimTime, pkt: Packet },
    /// Peer-bound packet from a guest whose external peer stayed home.
    ExtPkt { vm: u32, at: SimTime, pkt: Packet },
    /// An in-flight MSI that outlived its VM's residency here; re-raised
    /// on the current host over the reliable path.
    StaleMsi { vm: u32, at: SimTime, vector: Vector },
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
    /// Planned out-moves per slot, popped by [`Ev::MigrateStart`].
    pub(crate) out_plan: Vec<VecDeque<PlannedOut>>,
    /// Cold-restart specs per slot, popped by [`Ev::ColdRestart`]. A
    /// queue, not an option: one slot can crash-restart here more than
    /// once in a run.
    pub(crate) restarts: Vec<VecDeque<WorkloadSpec>>,
    /// Churn boot specs per slot (`spec`, `stuck`), popped by
    /// [`Ev::VmBoot`] — a retried arrival can boot on the same host
    /// twice, so staging must queue, not overwrite.
    pub(crate) boots: Vec<VecDeque<(WorkloadSpec, bool)>>,
    /// Slot was torn down on this host at least once (departure or
    /// boot-timeout rollback). A reclaimed, non-resident slot drops
    /// tenant-bound traffic at the host edge instead of forwarding it
    /// (the tenant is gone; forwarding would bounce against the stale
    /// timeline forever), and `liveness` holds it to the conservation
    /// invariant: zero retained threads, ring entries, vectors, or
    /// vhost work.
    pub(crate) reclaimed: Vec<bool>,
    /// Cross-host emissions staged by the gate, drained by the lane.
    pub(crate) cross_out: Vec<CrossOut>,
    pub(crate) costs: MigCosts,
    pub(crate) ledger: MigLedger,
}

impl Machine {
    /// Turn this machine into host `host` of a multi-host cell. Called
    /// once right after construction; every slot starts fully local
    /// (bit-identical behavior until `mark_remote`/schedule calls).
    pub(crate) fn enable_cluster(&mut self, host: u32, costs: MigCosts) {
        let n = self.topo.num_vms as usize;
        if let Some(r) = self.router.as_mut() {
            r.set_host(host);
        }
        self.mig = Some(Box::new(MigState {
            guest_local: vec![true; n],
            ext_local: vec![true; n],
            incoming: (0..n).map(|_| None).collect(),
            staged: (0..n).map(|_| None).collect(),
            out_plan: vec![VecDeque::new(); n],
            restarts: vec![VecDeque::new(); n],
            boots: vec![VecDeque::new(); n],
            reclaimed: vec![false; n],
            cross_out: Vec::new(),
            costs,
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

    /// Schedule an out-migration of `vm` pausing at `at`. `abort` is the
    /// predrawn mid-copy failure decision for this move.
    pub(crate) fn schedule_migration_out(&mut self, at: SimTime, vm: u32, abort: bool) {
        self.mig_mut().out_plan[vm as usize].push_back(PlannedOut { abort });
        self.q.push(at, Ev::MigrateStart { vm });
    }

    /// Schedule the target-side expectation of an inbound move pausing
    /// at `at` (starts the blackout buffer here).
    pub(crate) fn schedule_migration_in(&mut self, at: SimTime, vm: u32) {
        self.q.push(at, Ev::MigrateExpect { vm });
    }

    /// Schedule a crash victim's cold restart here at `at`.
    pub(crate) fn schedule_cold_restart(&mut self, at: SimTime, vm: u32, spec: WorkloadSpec) {
        self.mig_mut().restarts[vm as usize].push_back(spec);
        self.q.push(at, Ev::ColdRestart { vm });
    }

    /// Schedule the retirement of `vm`'s external peer here at `at` (its
    /// guest crash-restarted on another host, which rebuilt the peer).
    pub(crate) fn schedule_ext_retire(&mut self, at: SimTime, vm: u32) {
        self.q.push(at, Ev::ExtRetire { vm });
    }

    /// Schedule a churn arrival's boot in slot `vm` here at `at`. A
    /// `stuck` boot parks mid-handshake and waits for its timeout.
    pub(crate) fn schedule_vm_boot(&mut self, at: SimTime, vm: u32, spec: WorkloadSpec, stuck: bool) {
        self.mig_mut().boots[vm as usize].push_back((spec, stuck));
        self.q.push(at, Ev::VmBoot { vm });
    }

    /// Schedule the end of churn tenant `vm`'s lifetime here at `at`.
    pub(crate) fn schedule_vm_depart(&mut self, at: SimTime, vm: u32) {
        self.q.push(at, Ev::VmDepart { vm });
    }

    /// Schedule the handshake-timeout rollback of a stuck boot at `at`.
    pub(crate) fn schedule_boot_timeout(&mut self, at: SimTime, vm: u32) {
        self.q.push(at, Ev::BootTimeout { vm });
    }

    /// Schedule an observational control-plane note (admit/reject) at
    /// `at`: breadcrumb ring and telemetry annotation only.
    pub(crate) fn schedule_churn_note(&mut self, at: SimTime, vm: u32, kind: &'static str, arg: u64) {
        self.q.push(at, Ev::ChurnNote { vm, kind, arg });
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
    /// `mig` is `Some`). Returns the event to process locally, or `None`
    /// if it was forwarded across the mailbox, buffered for resume, or
    /// dropped (re-armed at resume by construction).
    pub(crate) fn mig_gate(&mut self, ev: Ev) -> Option<Ev> {
        match ev {
            Ev::ArriveAtHost { vm, pkt } => {
                let now = self.now;
                let m = self.mig.as_mut().unwrap();
                let vmi = vm as usize;
                if let Some(buf) = m.incoming[vmi].as_mut() {
                    buf.pkts.push(pkt);
                    None
                } else if !m.guest_local[vmi] {
                    if m.reclaimed[vmi] {
                        // The tenant was torn down here; its old flows
                        // drop at the host edge rather than bouncing
                        // against the stale location timeline.
                        return None;
                    }
                    let at = now + crate::cluster::CROSS_LANE_LOOKAHEAD;
                    m.cross_out.push(CrossOut::GuestPkt { vm, at, pkt });
                    None
                } else {
                    Some(ev)
                }
            }
            Ev::ArriveAtExt { vm, pkt } => {
                let now = self.now;
                let m = self.mig.as_mut().unwrap();
                if !m.ext_local[vm as usize] {
                    if m.reclaimed[vm as usize] {
                        return None;
                    }
                    let at = now + crate::cluster::CROSS_LANE_LOOKAHEAD;
                    m.cross_out.push(CrossOut::ExtPkt { vm, at, pkt });
                    None
                } else {
                    Some(ev)
                }
            }
            Ev::DelayedMsi { vm, vector } | Ev::RetargetMsi { vm, vector } => {
                let now = self.now;
                let m = self.mig.as_mut().unwrap();
                let vmi = vm as usize;
                if let Some(buf) = m.incoming[vmi].as_mut() {
                    buf.msis.push(vector);
                    None
                } else if !m.guest_local[vmi] {
                    if m.reclaimed[vmi] {
                        return None;
                    }
                    let at = now + crate::cluster::CROSS_LANE_LOOKAHEAD;
                    m.cross_out.push(CrossOut::StaleMsi { vm, at, vector });
                    None
                } else {
                    Some(ev)
                }
            }
            // A legacy assigned-device IRQ is a device MSI in flight: it
            // follows the VM like one (buffered or forwarded as the RX
            // vector over the reliable path).
            Ev::VfIrq { vm } => {
                let vector = self.vms[vm as usize].pairs[0].rx_vector;
                let now = self.now;
                let m = self.mig.as_mut().unwrap();
                let vmi = vm as usize;
                if let Some(buf) = m.incoming[vmi].as_mut() {
                    buf.msis.push(vector);
                    None
                } else if !m.guest_local[vmi] {
                    if m.reclaimed[vmi] {
                        return None;
                    }
                    let at = now + crate::cluster::CROSS_LANE_LOOKAHEAD;
                    m.cross_out.push(CrossOut::StaleMsi { vm, at, vector });
                    None
                } else {
                    Some(ev)
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
                let m = self.mig.as_ref().unwrap();
                let vmi = vm as usize;
                if !m.guest_local[vmi] || m.incoming[vmi].is_some() {
                    None
                } else {
                    Some(ev)
                }
            }
            _ => Some(ev),
        }
    }

    // -----------------------------------------------------------------
    // Pause / resume
    // -----------------------------------------------------------------

    /// Deschedule and pack `vm`, leaving a fresh dormant slot behind.
    /// Running vCPUs take a migration-forced exit (router sees them go
    /// offline); every thread's saved segment, the virtio rings, parked
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

        let costs = self.mig.as_ref().unwrap().costs;
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
        let copy_cost = costs.copy_base
            + SimDuration::from_nanos(costs.copy_per_unit.as_nanos().saturating_mul(dirty));
        let blackout = costs.pause + copy_cost + costs.resume;
        self.note_mig_pause(vm, dirty, costs.pause, copy_cost);

        let spec = std::mem::replace(&mut self.specs[vmi], WorkloadSpec::IdleQuiet);
        let fresh = Self::blank_vm_state(
            &self.p,
            &self.cfg,
            vm,
            &WorkloadSpec::IdleQuiet,
            false,
            vcpu_tids,
            vhost_tids,
        );
        let state = std::mem::replace(&mut self.vms[vmi], fresh);
        {
            let m = self.mig.as_mut().unwrap();
            m.ledger.pause_ns.push(costs.pause.as_nanos());
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
            resume_cost: costs.resume,
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
        // Slot indices are global across the cell, but re-stamp the vCPU
        // identities defensively (they feed router notifications).
        for (i, v) in st.vcpus.iter_mut().enumerate() {
            v.id = VcpuId::new(vm, i as u32);
        }
        // Any coalesced throttle wake died with the source's queue; the
        // next kick re-enters admission from the carried bucket state.
        for pair in st.pairs.iter_mut() {
            pair.throttle_armed = [false; 2];
        }
        self.vms[vmi] = st;
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
        // router's freshly rebuilt lists.
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
                .push(self.now + self.p.delayed_ack_timeout, Ev::AckFlush { vm });
        }
        if self.faults.is_active() {
            let tcp_sender = matches!(
                &self.vms[vmi].wl,
                GuestWl::NetperfSend { spec, .. }
                    if spec.proto == es2_workloads::NetperfProto::Tcp
            );
            if tcp_sender {
                self.q
                    .push(self.now + self.p.guest_rto_check, Ev::GuestTcpTimeout { vm });
            }
        }

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
    /// a slot in the wrong state (stale plan entry, missing snapshot or
    /// spec, teardown of a non-resident slot). Once slots free mid-run
    /// these paths are reachable, so they must not panic — `liveness`
    /// promotes every recorded entry to a fatal violation instead (the
    /// same discipline as the vhost panic audit).
    fn ctl_error(&mut self, vm: u32, msg: String) {
        self.note_breadcrumb(vm, "ctl-error", 0);
        self.mig_mut().ledger.ctl_errors.push(msg);
    }

    pub(crate) fn on_migrate_start(&mut self, vm: u32) {
        let vmi = vm as usize;
        let planned = match self.mig_mut().out_plan[vmi].pop_front() {
            Some(p) => p,
            None => {
                self.ctl_error(vm, format!("MigrateStart for vm{vm} without a planned move"));
                return;
            }
        };
        let snap = self.pause_vm(vm);
        let blackout = snap.blackout;
        let at = self.now + blackout;
        let kind = if planned.abort {
            "mig-abort"
        } else {
            "migrate-start"
        };
        self.note_control(vm, kind, blackout.as_nanos());
        if planned.abort {
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
                self.ctl_error(vm, format!("MigrateArrive for vm{vm} without a staged snapshot"));
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
        self.ext[vm as usize] = crate::workload::ExtWl::Idle;
        self.note_breadcrumb(vm, "ext-retire", 0);
    }

    /// A crash victim cold-restarts here: fresh VM state, fresh rings,
    /// and a fresh external peer rebuilt locally (the old one died with
    /// the crashed host or is retired). In-flight state of the crashed
    /// host is gone — this is disaster recovery, not live migration —
    /// but the restarted VM regains full forward progress.
    pub(crate) fn on_cold_restart(&mut self, vm: u32) {
        let spec = match self.mig_mut().restarts[vm as usize].pop_front() {
            Some(s) => s,
            None => {
                self.ctl_error(vm, format!("ColdRestart for vm{vm} without a spec"));
                return;
            }
        };
        self.mig_mut().ledger.restarts += 1;
        self.boot_fresh_vm(vm, spec, "cold-restart");
    }

    /// A churn arrival's boot lands here: a clean boot is a fresh VM
    /// exactly like a cold restart; a stuck boot parks mid-handshake and
    /// occupies the slot until its timeout rolls it back.
    pub(crate) fn on_vm_boot(&mut self, vm: u32) {
        let (spec, stuck) = match self.mig_mut().boots[vm as usize].pop_front() {
            Some(b) => b,
            None => {
                self.ctl_error(vm, format!("VmBoot for vm{vm} without a staged boot"));
                return;
            }
        };
        if stuck {
            self.partial_boot(vm);
        } else {
            self.mig_mut().ledger.boots += 1;
            self.boot_fresh_vm(vm, spec, "vm-boot");
        }
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

    /// Bring slot `vm` fully live with fresh state: fresh rings, fresh
    /// external peer rebuilt locally, guest booted exactly like
    /// bootstrap. Shared by cold restarts and clean churn boots.
    fn boot_fresh_vm(&mut self, vm: u32, spec: WorkloadSpec, label: &'static str) {
        let vmi = vm as usize;
        let vcpu_tids = self.vms[vmi].vcpu_tids.clone();
        let vhost_tids = self.vms[vmi].vhost_tids.clone();

        // The dormant slot's threads may still be awake (a parked vCPU
        // waiting for its first slice on a busy host): park them before
        // rebooting, exactly like a teardown. No-op on sleeping threads,
        // so a cold restart of a long-dormant slot is unchanged.
        for &tid in &vcpu_tids {
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }
        for &tid in &vhost_tids {
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }
        for &tid in &vcpu_tids {
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = None;
        }
        for &tid in &vhost_tids {
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = None;
        }

        let fresh = Self::blank_vm_state(
            &self.p,
            &self.cfg,
            vm,
            &spec,
            true,
            vcpu_tids.clone(),
            vhost_tids,
        );
        self.vms[vmi] = fresh;
        let ext_seed = self.rng.next_u64();
        self.ext[vmi] = crate::workload::ExtWl::for_spec(&spec, self.p.ext_tcp_window, ext_seed);
        self.specs[vmi] = spec;
        {
            let m = self.mig_mut();
            m.guest_local[vmi] = true;
            m.ext_local[vmi] = true;
            m.incoming[vmi] = None;
            m.reclaimed[vmi] = false;
        }
        self.note_control(vm, label, 0);

        // Boot the guest exactly like bootstrap does: staggered
        // vruntimes, woken vCPUs, external kick-off, recovery chains.
        let latency = self.p.sched.sched_latency.as_nanos();
        for &tid in &vcpu_tids {
            let nudge = self.rng.gen_range(latency);
            self.sched.nudge_vruntime(tid, nudge);
            self.wake_thread(tid);
        }
        self.bootstrap_external_vm(vm);
        if self.faults.is_active() {
            let tcp_sender = matches!(
                &self.vms[vmi].wl,
                GuestWl::NetperfSend { spec, .. }
                    if spec.proto == es2_workloads::NetperfProto::Tcp
            );
            if tcp_sender {
                self.q
                    .push(self.now + self.p.guest_rto_check, Ev::GuestTcpTimeout { vm });
            }
        }
    }

    /// A stuck boot: the vCPUs come up (firmware spin, then halt) but
    /// the virtio handshake never completes — no device, no external
    /// peer, no traffic. The slot counts against its host's capacity
    /// until the handshake timeout tears it back down.
    fn partial_boot(&mut self, vm: u32) {
        let vmi = vm as usize;
        let vcpu_tids = self.vms[vmi].vcpu_tids.clone();
        let vhost_tids = self.vms[vmi].vhost_tids.clone();
        for &tid in &vcpu_tids {
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }
        for &tid in &vhost_tids {
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }
        for &tid in &vcpu_tids {
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = None;
        }
        for &tid in &vhost_tids {
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = None;
        }
        let fresh = Self::blank_vm_state(
            &self.p,
            &self.cfg,
            vm,
            &WorkloadSpec::IdleQuiet,
            false,
            vcpu_tids.clone(),
            vhost_tids,
        );
        self.vms[vmi] = fresh;
        self.specs[vmi] = WorkloadSpec::IdleQuiet;
        self.ext[vmi] = crate::workload::ExtWl::Idle;
        {
            let m = self.mig_mut();
            m.guest_local[vmi] = true;
            m.ext_local[vmi] = false;
            m.incoming[vmi] = None;
            m.reclaimed[vmi] = false;
        }
        self.note_control(vm, "vm-boot", 1);
        let latency = self.p.sched.sched_latency.as_nanos();
        for &tid in &vcpu_tids {
            let nudge = self.rng.gen_range(latency);
            self.sched.nudge_vruntime(tid, nudge);
            self.wake_thread(tid);
        }
    }

    /// Tear slot `vm` down and reclaim everything it held: threads
    /// descheduled (running vCPUs take a forced exit on the way out,
    /// exactly like a migration pause), pending segment completions die
    /// via the generation bump, and the slot becomes a fresh dormant VM
    /// with empty rings — so the conservation invariant holds by
    /// construction, and anything a teardown path misses shows up
    /// against it. Returns `false` (with a typed error recorded) if the
    /// slot is not resident here.
    pub(crate) fn teardown_vm(&mut self, vm: u32, label: &'static str) -> bool {
        let vmi = vm as usize;
        let resident = self.mig.as_ref().is_some_and(|m| m.guest_local[vmi]);
        if !resident {
            self.ctl_error(vm, format!("{label} for vm{vm} that is not resident here"));
            return false;
        }
        let vcpu_tids = self.vms[vmi].vcpu_tids.clone();
        let vhost_tids = self.vms[vmi].vhost_tids.clone();
        for &tid in &vcpu_tids {
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }
        for &tid in &vhost_tids {
            if let Some(sw) = self.sched.deactivate(tid, self.now) {
                self.apply_switch(sw);
            }
        }
        for &tid in &vcpu_tids {
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = None;
        }
        for &tid in &vhost_tids {
            self.threads[tid.idx()].gen.bump();
            self.threads[tid.idx()].seg = None;
        }
        let fresh = Self::blank_vm_state(
            &self.p,
            &self.cfg,
            vm,
            &WorkloadSpec::IdleQuiet,
            false,
            vcpu_tids,
            vhost_tids,
        );
        self.vms[vmi] = fresh;
        self.specs[vmi] = WorkloadSpec::IdleQuiet;
        self.ext[vmi] = crate::workload::ExtWl::Idle;
        {
            let m = self.mig_mut();
            m.guest_local[vmi] = false;
            m.ext_local[vmi] = false;
            m.incoming[vmi] = None;
            // Deliberately leave `boots[vmi]` alone: a later boot of the
            // same slot on this host may already be staged.
            m.reclaimed[vmi] = true;
        }
        self.note_control(vm, label, 0);
        true
    }

    // -----------------------------------------------------------------
    // State construction
    // -----------------------------------------------------------------

    /// A freshly-initialized [`VmState`] for slot `vm` on the given
    /// threads: the constructor builds every VM with it, and a cold
    /// restart, churn boot, teardown or migration pause rebuilds a slot
    /// with it. `prefill_rx` pre-fills the RX ring like a booting guest
    /// driver; a dormant vacated slot keeps empty rings so
    /// ring-conservation invariants hold trivially.
    pub(crate) fn blank_vm_state(
        p: &crate::params::Params,
        cfg: &es2_core::EventPathConfig,
        vm: u32,
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
        for idx in 0..nv {
            vcpus.push(Vcpu::new(VcpuId::new(vm, idx as u32), path));
            vctx.push(VcpuCtx::default());
        }
        let mut worker = VhostPool::new(num_workers, p.shard_policy);
        let vq_cfg = VirtqueueConfig {
            size: p.ring_size,
            event_idx: true,
        };
        let num_pairs = p.queues_per_vm.max(1);
        let mut pairs = Vec::with_capacity(num_pairs as usize);
        for qi in 0..num_pairs {
            // Pair q is owned by (and its MSIs steered at) vCPU q%N.
            let owner = qi % nv as u32;
            let (tx_h, rx_h) = worker.register_pair(qi, owner);
            let mut tx = Virtqueue::new(vq_cfg);
            let mut rx = Virtqueue::new(vq_cfg);
            // Guest TX completions are reclaimed in the xmit path; TX
            // interrupts armed only when the ring fills. RX refill kicks
            // stay unarmed unless vhost runs out of buffers.
            tx.driver_disable_interrupts();
            if prefill_rx {
                for _ in 0..p.ring_size {
                    rx.driver_add(()).expect("ring has room");
                }
            }
            rx.device_disable_notify();
            let mut tx_handler = match cfg.hybrid {
                Some(h) => HybridHandler::new(h),
                None => HybridHandler::stock(),
            };
            if let Some(bp) = p.backpressure {
                tx_handler.set_service_budget(bp.service_budget);
            }
            pairs.push(QueuePair {
                tx_h,
                rx_h,
                tx,
                rx,
                tx_handler,
                rx_turn: 0,
                backlog: es2_net::NicQueue::new(p.host_backlog),
                tx_vector: 0x41 + (2 * qi) as u8,
                rx_vector: 0x42 + (2 * qi) as u8,
                affinity_vcpu: owner,
                blocked_tx_full: false,
                kick_bucket: p.backpressure.as_ref().map(crate::backpressure::KickBucket::new),
                throttle_armed: [false; 2],
                budget_window_idx: 0,
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
            wl: GuestWl::for_spec(spec, p.tcp_window),
            parked_irqs: Vec::new(),
            pi_failed: false,
            ledger: crate::telemetry::VmLedger::new(nv),
        }
    }
}
