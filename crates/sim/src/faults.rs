//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is a plain-data description of *what can go wrong* in a
//! simulation run: per-injection-point probabilities and magnitudes for
//! dropped/delayed guest kicks, vhost-worker stalls, lost/late MSIs,
//! packet loss/duplication/reordering, forced vCPU preemption storms, and
//! mid-run loss of posted-interrupt hardware for a subset of VMs. The plan
//! is `Copy` so an experiment spec that embeds one stays a pure value —
//! a faulted run is still a pure function of `(config, workload, params,
//! seed, plan)` and therefore bitwise-reproducible under the parallel
//! sweep executor at any `ES2_THREADS`.
//!
//! A [`FaultInjector`] is the runtime half: it owns one forked [`SimRng`]
//! stream **per injection point**, so the draw sequence at each point
//! depends only on how many decisions that point has made — not on how
//! decisions at different points interleave, and never on the simulation's
//! own RNG. Two guarantees follow:
//!
//! 1. **Clean-path identity** — an inactive injector performs *zero* RNG
//!    draws, so a run with no plan is bit-identical to a build without the
//!    hooks at all.
//! 2. **Stream isolation** — enabling one fault class does not shift the
//!    random stream seen by another, which keeps A/B comparisons between
//!    plans meaningful.
//!
//! The injector only *decides*; the world being simulated applies the
//! decision (e.g. by not queueing the vhost handler, or by re-scheduling a
//! packet arrival) and owns the corresponding recovery machinery.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Delay applied to a delayed guest kick.
pub(crate) const KICK_DELAY: SimDuration = SimDuration::from_micros(50);
/// Stall added to a stalled vhost handler dispatch.
pub(crate) const WORKER_STALL: SimDuration = SimDuration::from_micros(200);
/// Extra latency of a reordered packet.
pub(crate) const PKT_REORDER_DELAY: SimDuration = SimDuration::from_micros(40);

/// What to do with a single point-to-point delivery (guest kick or MSI).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryFault {
    /// Deliver normally.
    Deliver,
    /// Silently lose the notification (the payload state remains; only the
    /// signal is lost — exactly the failure the re-arm double-check and
    /// watchdog re-kick recover from).
    Drop,
    /// Deliver after an extra delay.
    Delay(SimDuration),
}

/// The kind of virtio ring corruption a hostile guest publishes.
///
/// The injector only *selects* a kind; the virtqueue model translates it
/// into concrete corrupted ring state (an out-of-range descriptor index, a
/// bogus avail idx, an over-length or self-referencing chain, a used-ring
/// overflow claim) and the vhost backend's validation layer is what must
/// catch it and quarantine the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingCorruptionKind {
    /// Publish a descriptor index `>= queue size`.
    DescOutOfRange,
    /// Jump the avail idx far ahead of the entries actually added.
    AvailIdxJump,
    /// Move the avail idx *backwards* past entries the device consumed.
    AvailIdxRegress,
    /// Publish a self-referencing descriptor chain (`next == head`).
    DescLoop,
    /// Publish a chain one past the queue-size limit.
    ChainOverLength,
    /// Claim more used entries outstanding than the ring can hold.
    UsedOverflow,
}

/// Decision for one guest kick exit on the hostile VM: how many *extra*
/// spurious doorbell kicks to fire after the real one, and whether to
/// corrupt the ring before the backend next looks at it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostileKick {
    /// Spurious kick exits the guest performs after the real kick (each
    /// costs the hostile guest a full I/O-instruction exit).
    pub extra_kicks: u32,
    /// Ring corruption to publish, if any.
    pub corruption: Option<RingCorruptionKind>,
}

impl HostileKick {
    /// The well-behaved decision: no storm, no corruption.
    pub(crate) const NONE: HostileKick = HostileKick {
        extra_kicks: 0,
        corruption: None,
    };
}

/// What to do with a single packet crossing a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketFault {
    /// Deliver normally.
    Deliver,
    /// Lose the packet (TCP retransmit is the recovery path).
    Drop,
    /// Deliver twice (the receiver must tolerate duplicates).
    Duplicate,
    /// Deliver late — after packets transmitted behind it, i.e. reordered.
    Delay(SimDuration),
}

/// A complete, declarative fault schedule for one simulation run.
///
/// All-zero probabilities (the [`FaultPlan::none`] default) mean "no
/// faults"; such a plan never activates the injector. Probabilities are
/// per-decision Bernoulli draws; drop is evaluated before delay at points
/// that support both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// P(guest kick is lost) per kick I/O exit.
    pub kick_drop_p: f64,
    /// P(guest kick is delayed by `KICK_DELAY`, 50 µs) per kick,
    /// evaluated after the drop draw.
    pub kick_delay_p: f64,
    /// P(vhost worker stalls for `WORKER_STALL`, 200 µs) per handler
    /// dispatch.
    pub worker_stall_p: f64,
    /// P(device MSI is lost) per interrupt raise.
    pub msi_drop_p: f64,
    /// P(device MSI is delayed) per raise, evaluated after the drop draw.
    pub msi_delay_p: f64,
    /// Delay applied to a delayed MSI.
    pub msi_delay: SimDuration,
    /// P(packet dropped) per link transmit.
    pub pkt_drop_p: f64,
    /// P(packet duplicated), evaluated after the drop draw.
    pub pkt_dup_p: f64,
    /// P(packet delayed past later traffic by `PKT_REORDER_DELAY`,
    /// 40 µs), evaluated after drop and dup.
    pub pkt_reorder_p: f64,
    /// Period of forced-preemption storms; `ZERO` disables them.
    pub preempt_storm_period: SimDuration,
    /// P(a given core is forcibly rescheduled) per storm tick.
    pub preempt_storm_p: f64,
    /// Bitmask of VM indices whose posted-interrupt hardware fails mid-run
    /// (bit *n* = VM *n*). Zero disables the degradation.
    pub pi_unavailable_mask: u64,
    /// When, relative to run start, the masked VMs lose PI.
    pub pi_fail_after: SimDuration,

    // ---- hostile-guest family ----
    /// The VM index that misbehaves. Every hostile fault class below
    /// applies to this VM only — the isolation suite asserts that the
    /// blast radius stays confined to it.
    pub hostile_vm: u32,
    /// Corrupt the ring on the N-th kick exit of the hostile VM
    /// (1-based; 0 disables). Deterministic — no RNG draw — so a test can
    /// pin the corruption to an exact guest operation.
    pub ring_corrupt_at_kick: u64,
    /// Which corruption [`ring_corrupt_at_kick`](Self::ring_corrupt_at_kick)
    /// publishes.
    pub ring_corruption: RingCorruptionKind,
    /// P(a kick exit is followed by a spurious doorbell storm) per hostile
    /// kick.
    pub kick_storm_p: f64,
    /// Spurious kicks per storm burst.
    pub kick_storm_burst: u32,
    /// P(an EOI is followed by spurious EOI writes) per hostile EOI.
    pub eoi_storm_p: f64,
    /// Spurious EOI writes per storm burst (each is an APIC-access exit on
    /// the emulated path).
    pub eoi_storm_burst: u32,
    /// P(the hostile guest publishes a self-referencing descriptor) per
    /// kick, evaluated after the storm draw.
    pub desc_loop_p: f64,

    // ---- host-fault family ----
    // These classes address *hosts*, not VMs, so they are decided once at
    // cluster construction by the cluster-level injector; the per-host
    // machine plans always carry them zeroed (see
    // [`FaultPlan::for_single_host`]). A single-host `Machine` handed a
    // plan with only host faults set therefore still runs the clean path.
    /// Bitmask of host indices that crash outright (bit *h* = host *h*).
    /// Deterministic — no RNG draw — so a test can pin the failing host.
    pub host_crash_mask: u64,
    /// When, relative to run start, the masked hosts crash. `ZERO`
    /// disables the mask.
    pub host_crash_at: SimDuration,
    /// Bitmask of hosts that run degraded (bit *h* = host *h*): their
    /// cores suffer forced-preemption storms for the whole run, modeling a
    /// sick-but-alive hypervisor. Projection maps this onto the existing
    /// per-machine preempt-storm machinery of the affected host only.
    pub host_degraded_storm_mask: u64,
    /// Storm probability per core per tick on degraded hosts.
    pub host_degraded_storm_p: f64,
    /// Storm tick period on degraded hosts; `ZERO` disables degradation.
    pub host_degraded_storm_period: SimDuration,
    /// Abort the N-th planned live migration mid-copy and roll it back
    /// to the source host (1-based; 0 disables). Deterministic — no RNG
    /// draw — so a test can pin the rollback to an exact move.
    pub migration_abort_nth: u64,

    // ---- churn control-plane family ----
    // These classes address control-plane *operations* (placements and
    // boots of churn arrivals), not VMs or hosts, so like the host family
    // they are decided once at cluster construction by the cluster-level
    // injector and always reach per-host machine plans zeroed (see
    // [`FaultPlan::for_single_host`]).
    /// P(a placement attempt fails transiently at the control plane even
    /// though capacity exists), drawn once per attempt from the churn
    /// fault stream. The arrival re-enters the retry queue.
    pub churn_place_fail_p: f64,
    /// P(a boot sticks mid-handshake: vCPUs come up but the virtio
    /// feature negotiation never completes), drawn once per boot from the
    /// churn fault stream. The control plane times the boot out, tears
    /// the slot down, and re-enters the arrival into the retry queue.
    pub churn_boot_stall_p: f64,
    /// Deterministically stall the N-th boot (1-based; 0 disables) —
    /// outranks the probabilistic draw for that boot.
    pub churn_boot_stall_nth: u64,
}

impl FaultPlan {
    /// The empty plan: no faults, injector stays inert.
    pub const fn none() -> Self {
        FaultPlan {
            kick_drop_p: 0.0,
            kick_delay_p: 0.0,
            worker_stall_p: 0.0,
            msi_drop_p: 0.0,
            msi_delay_p: 0.0,
            msi_delay: SimDuration::ZERO,
            pkt_drop_p: 0.0,
            pkt_dup_p: 0.0,
            pkt_reorder_p: 0.0,
            preempt_storm_period: SimDuration::ZERO,
            preempt_storm_p: 0.0,
            pi_unavailable_mask: 0,
            pi_fail_after: SimDuration::ZERO,
            hostile_vm: 0,
            ring_corrupt_at_kick: 0,
            ring_corruption: RingCorruptionKind::DescOutOfRange,
            kick_storm_p: 0.0,
            kick_storm_burst: 0,
            eoi_storm_p: 0.0,
            eoi_storm_burst: 0,
            desc_loop_p: 0.0,
            host_crash_mask: 0,
            host_crash_at: SimDuration::ZERO,
            host_degraded_storm_mask: 0,
            host_degraded_storm_p: 0.0,
            host_degraded_storm_period: SimDuration::ZERO,
            migration_abort_nth: 0,
            churn_place_fail_p: 0.0,
            churn_boot_stall_p: 0.0,
            churn_boot_stall_nth: 0,
        }
    }

    /// Whether any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.kick_drop_p > 0.0
            || self.kick_delay_p > 0.0
            || self.worker_stall_p > 0.0
            || self.msi_drop_p > 0.0
            || self.msi_delay_p > 0.0
            || self.pkt_drop_p > 0.0
            || self.pkt_dup_p > 0.0
            || self.pkt_reorder_p > 0.0
            || (!self.preempt_storm_period.is_zero() && self.preempt_storm_p > 0.0)
            || self.pi_unavailable_mask != 0
            || self.hostile_active()
            || self.host_fault_active()
            || self.churn_fault_active()
    }

    /// Whether any churn control-plane fault class is enabled. Existing
    /// chaos/hostile/host plans leave the whole family zero, so their
    /// runs and reports are untouched by the churn machinery.
    pub(crate) fn churn_fault_active(&self) -> bool {
        self.churn_place_fail_p > 0.0
            || self.churn_boot_stall_p > 0.0
            || self.churn_boot_stall_nth > 0
    }

    /// Whether any host-fault class is enabled. Single-host plans (all
    /// existing chaos/hostile plans) leave the whole family zero, so their
    /// runs and reports are untouched by the cluster machinery.
    pub(crate) fn host_fault_active(&self) -> bool {
        (self.host_crash_mask != 0 && !self.host_crash_at.is_zero())
            || (self.host_degraded_storm_mask != 0
                && self.host_degraded_storm_p > 0.0
                && !self.host_degraded_storm_period.is_zero())
            || self.migration_abort_nth > 0
    }

    /// Whether host `h` is deterministically scheduled to crash.
    pub(crate) fn crashes_host(&self, h: usize) -> bool {
        h < 64 && !self.host_crash_at.is_zero() && self.host_crash_mask & (1u64 << h) != 0
    }

    /// Whether host `h` runs degraded (forced-preemption storms).
    pub(crate) fn degrades_host(&self, h: usize) -> bool {
        h < 64
            && self.host_degraded_storm_p > 0.0
            && !self.host_degraded_storm_period.is_zero()
            && self.host_degraded_storm_mask & (1u64 << h) != 0
    }

    /// Project this plan onto one host of a cluster: the host family is
    /// zeroed (those decisions live at the cluster level), and a degraded
    /// host has the degradation translated onto its own preempt-storm
    /// machinery. VM-addressed classes are **not** remapped: every host
    /// runs the cell's global VM slot table, so VM indices are already
    /// global.
    pub fn for_single_host(&self, host: usize) -> FaultPlan {
        let mut p = *self;
        if self.degrades_host(host) {
            p.preempt_storm_period = self.host_degraded_storm_period;
            p.preempt_storm_p = self.host_degraded_storm_p;
        }
        p.host_crash_mask = 0;
        p.host_crash_at = SimDuration::ZERO;
        p.host_degraded_storm_mask = 0;
        p.host_degraded_storm_p = 0.0;
        p.host_degraded_storm_period = SimDuration::ZERO;
        p.migration_abort_nth = 0;
        p.churn_place_fail_p = 0.0;
        p.churn_boot_stall_p = 0.0;
        p.churn_boot_stall_nth = 0;
        p
    }

    /// Whether any hostile-guest fault class is enabled. Existing chaos
    /// plans leave all of these zero, so their runs (and reports) are
    /// untouched by the hostile machinery.
    pub(crate) fn hostile_active(&self) -> bool {
        self.ring_corrupt_at_kick > 0
            || (self.kick_storm_p > 0.0 && self.kick_storm_burst > 0)
            || (self.eoi_storm_p > 0.0 && self.eoi_storm_burst > 0)
            || self.desc_loop_p > 0.0
    }

    /// Whether VM `vm` is scheduled to lose posted-interrupt hardware.
    pub fn pi_fails_for_vm(&self, vm: usize) -> bool {
        vm < 64 && self.pi_unavailable_mask & (1u64 << vm) != 0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Injection counters, reported alongside run results so degradation can
/// be attributed to specific injected faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub kicks_dropped: u64,
    pub kicks_delayed: u64,
    pub worker_stalls: u64,
    pub msis_dropped: u64,
    pub msis_delayed: u64,
    pub pkts_dropped: u64,
    pub pkts_duplicated: u64,
    pub pkts_reordered: u64,
    pub storm_preemptions: u64,
    pub pi_degradations: u64,
    /// Ring corruptions published by the hostile guest (deterministic
    /// triggers and descriptor-loop draws combined).
    pub ring_corruptions: u64,
    /// Spurious doorbell kicks fired by kick storms.
    pub storm_kicks: u64,
    /// Spurious EOI writes fired by EOI storms.
    pub storm_eois: u64,
    /// Hosts crashed by the plan's crash mask.
    pub host_crashes: u64,
    /// Planned live migrations aborted mid-copy.
    pub migration_aborts: u64,
    /// Churn placement attempts failed transiently at the control plane.
    pub churn_place_fails: u64,
    /// Churn boots stuck mid-handshake (timed out and rolled back).
    pub churn_boot_stalls: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.kicks_dropped
            + self.kicks_delayed
            + self.worker_stalls
            + self.msis_dropped
            + self.msis_delayed
            + self.pkts_dropped
            + self.pkts_duplicated
            + self.pkts_reordered
            + self.storm_preemptions
            + self.pi_degradations
            + self.ring_corruptions
            + self.storm_kicks
            + self.storm_eois
            + self.host_crashes
            + self.migration_aborts
            + self.churn_place_fails
            + self.churn_boot_stalls
    }
}

/// Runtime fault decision engine: one independent RNG stream per
/// injection point, plus counters.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    active: bool,
    kick_rng: SimRng,
    stall_rng: SimRng,
    msi_rng: SimRng,
    pkt_rng: SimRng,
    storm_rng: SimRng,
    hostile_kick_rng: SimRng,
    hostile_eoi_rng: SimRng,
    churn_arrival_rng: SimRng,
    churn_retry_rng: SimRng,
    churn_fault_rng: SimRng,
    /// Kick exits seen from the hostile VM (drives the deterministic
    /// corrupt-at-Nth-kick trigger).
    hostile_kicks_seen: u64,
    /// Planned migrations seen (drives the abort-the-Nth trigger).
    moves_planned: u64,
    /// Churn boots started (drives stall-the-Nth).
    boots_started: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build an injector for `plan`, deriving per-point streams from
    /// `seed`. An inactive plan produces an inert injector (every
    /// decision is `Deliver`/`None` with zero RNG draws).
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let mut root = SimRng::new(seed ^ 0xFA17_FA17_FA17_FA17);
        let active = plan.is_active();
        // Fork order is part of the determinism contract: the hostile
        // streams fork *after* every pre-existing stream so adding them
        // left the seeds of the older injection points unchanged, and
        // the three churn streams fork after the hostile pair for the
        // same reason.
        let kick_rng = root.fork();
        let stall_rng = root.fork();
        let msi_rng = root.fork();
        let pkt_rng = root.fork();
        let storm_rng = root.fork();
        let hostile_kick_rng = root.fork();
        let hostile_eoi_rng = root.fork();
        // Two retired streams (drawn host crashes, drawn migration
        // aborts): nothing draws from them, but their forks keep the
        // churn streams' seeds unchanged.
        root.fork();
        root.fork();
        FaultInjector {
            plan,
            active,
            kick_rng,
            stall_rng,
            msi_rng,
            pkt_rng,
            storm_rng,
            hostile_kick_rng,
            hostile_eoi_rng,
            churn_arrival_rng: root.fork(),
            churn_retry_rng: root.fork(),
            churn_fault_rng: root.fork(),
            hostile_kicks_seen: 0,
            moves_planned: 0,
            boots_started: 0,
            stats: FaultStats::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decide the fate of one guest kick (virtqueue notification exit).
    pub fn on_guest_kick(&mut self) -> DeliveryFault {
        if !self.active {
            return DeliveryFault::Deliver;
        }
        if self.plan.kick_drop_p > 0.0 && self.kick_rng.gen_bool(self.plan.kick_drop_p) {
            self.stats.kicks_dropped += 1;
            return DeliveryFault::Drop;
        }
        if self.plan.kick_delay_p > 0.0 && self.kick_rng.gen_bool(self.plan.kick_delay_p) {
            self.stats.kicks_delayed += 1;
            return DeliveryFault::Delay(KICK_DELAY);
        }
        DeliveryFault::Deliver
    }

    /// Extra stall to add to one vhost handler dispatch, if any.
    #[inline]
    pub fn on_worker_dispatch(&mut self) -> Option<SimDuration> {
        if !self.active || self.plan.worker_stall_p <= 0.0 {
            return None;
        }
        if self.stall_rng.gen_bool(self.plan.worker_stall_p) {
            self.stats.worker_stalls += 1;
            Some(WORKER_STALL)
        } else {
            None
        }
    }

    /// Decide the fate of one device MSI.
    pub fn on_msi(&mut self) -> DeliveryFault {
        if !self.active {
            return DeliveryFault::Deliver;
        }
        if self.plan.msi_drop_p > 0.0 && self.msi_rng.gen_bool(self.plan.msi_drop_p) {
            self.stats.msis_dropped += 1;
            return DeliveryFault::Drop;
        }
        if self.plan.msi_delay_p > 0.0 && self.msi_rng.gen_bool(self.plan.msi_delay_p) {
            self.stats.msis_delayed += 1;
            return DeliveryFault::Delay(self.plan.msi_delay);
        }
        DeliveryFault::Deliver
    }

    /// Decide the fate of one packet crossing a link.
    #[inline]
    pub fn on_packet(&mut self) -> PacketFault {
        if !self.active {
            return PacketFault::Deliver;
        }
        if self.plan.pkt_drop_p > 0.0 && self.pkt_rng.gen_bool(self.plan.pkt_drop_p) {
            self.stats.pkts_dropped += 1;
            return PacketFault::Drop;
        }
        if self.plan.pkt_dup_p > 0.0 && self.pkt_rng.gen_bool(self.plan.pkt_dup_p) {
            self.stats.pkts_duplicated += 1;
            return PacketFault::Duplicate;
        }
        if self.plan.pkt_reorder_p > 0.0 && self.pkt_rng.gen_bool(self.plan.pkt_reorder_p) {
            self.stats.pkts_reordered += 1;
            return PacketFault::Delay(PKT_REORDER_DELAY);
        }
        PacketFault::Deliver
    }

    /// Storm tick: decide, per core, whether to force a reschedule.
    /// Returns the indices (within `cores`) to preempt.
    pub fn on_storm_tick(&mut self, cores: usize) -> Vec<usize> {
        let mut hit = Vec::new();
        if !self.active || self.plan.preempt_storm_p <= 0.0 {
            return hit;
        }
        for c in 0..cores {
            if self.storm_rng.gen_bool(self.plan.preempt_storm_p) {
                hit.push(c);
            }
        }
        self.stats.storm_preemptions += hit.len() as u64;
        hit
    }

    /// Record that one vCPU degraded from posted to emulated interrupts.
    pub fn note_pi_degradation(&mut self) {
        self.stats.pi_degradations += 1;
    }

    /// Decide what the hostile guest does around one kick exit of VM
    /// `vm`: zero extra work for well-behaved VMs (and zero RNG draws —
    /// the per-VM gate sits before every draw, so enabling hostility on
    /// one VM cannot shift any other VM's behaviour).
    pub fn on_hostile_kick(&mut self, vm: u32) -> HostileKick {
        if !self.active || vm != self.plan.hostile_vm || !self.plan.hostile_active() {
            return HostileKick::NONE;
        }
        self.hostile_kicks_seen += 1;
        let mut decision = HostileKick::NONE;
        if self.plan.kick_storm_p > 0.0
            && self.plan.kick_storm_burst > 0
            && self.hostile_kick_rng.gen_bool(self.plan.kick_storm_p)
        {
            decision.extra_kicks = self.plan.kick_storm_burst;
            self.stats.storm_kicks += decision.extra_kicks as u64;
        }
        // The deterministic trigger outranks the probabilistic one so a
        // test can pin the corruption kind to an exact operation.
        if self.plan.ring_corrupt_at_kick > 0
            && self.hostile_kicks_seen == self.plan.ring_corrupt_at_kick
        {
            decision.corruption = Some(self.plan.ring_corruption);
            self.stats.ring_corruptions += 1;
        } else if self.plan.desc_loop_p > 0.0
            && self.hostile_kick_rng.gen_bool(self.plan.desc_loop_p)
        {
            decision.corruption = Some(RingCorruptionKind::DescLoop);
            self.stats.ring_corruptions += 1;
        }
        decision
    }

    /// Extra spurious EOI writes the hostile guest performs after one real
    /// EOI of VM `vm` (0 for well-behaved VMs, with zero RNG draws).
    pub fn on_hostile_eoi(&mut self, vm: u32) -> u32 {
        if !self.active
            || vm != self.plan.hostile_vm
            || self.plan.eoi_storm_p <= 0.0
            || self.plan.eoi_storm_burst == 0
        {
            return 0;
        }
        if self.hostile_eoi_rng.gen_bool(self.plan.eoi_storm_p) {
            self.stats.storm_eois += self.plan.eoi_storm_burst as u64;
            self.plan.eoi_storm_burst
        } else {
            0
        }
    }

    /// Decide, at cluster construction, whether (and when) host `host`
    /// crashes: the plan's crash mask decides, with no draw.
    pub fn on_host_admission(&mut self, host: usize) -> Option<SimDuration> {
        if !self.plan.crashes_host(host) {
            return None;
        }
        self.stats.host_crashes += 1;
        Some(self.plan.host_crash_at)
    }

    /// Decide, at cluster construction, whether the next planned live
    /// migration aborts mid-copy: only the plan's N-th one does, with
    /// no draw.
    pub fn on_migration_planned(&mut self) -> bool {
        self.moves_planned += 1;
        let abort = self.moves_planned == self.plan.migration_abort_nth;
        if abort {
            self.stats.migration_aborts += 1;
        }
        abort
    }

    /// Shape of the bounded-Pareto churn draws: `α = 2` gives the
    /// heavy tail (finite mean, infinite variance before truncation)
    /// that tenant inter-arrival and lifetime traces show.
    const CHURN_PARETO_ALPHA: f64 = 2.0;
    /// Upper truncation of the churn tail, as a multiple of `scale` —
    /// keeps a single draw from swallowing the whole run.
    const CHURN_PARETO_CAP: u64 = 32;

    /// One bounded-Pareto draw with minimum `scale / 2` (so the
    /// untruncated mean is `scale`) capped at `32 × scale`. Inverse
    /// transform on one uniform: exactly one RNG draw per call.
    fn pareto_ns(rng: &mut SimRng, scale_ns: u64) -> u64 {
        let xm = (scale_ns / 2).max(1) as f64;
        let cap = (scale_ns * Self::CHURN_PARETO_CAP).max(1) as f64;
        let alpha = Self::CHURN_PARETO_ALPHA;
        let u = rng.gen_f64();
        // Bounded Pareto inverse CDF: x = xm / (1 − u·(1 − (xm/cap)^α))^(1/α).
        let tail = 1.0 - u * (1.0 - (xm / cap).powf(alpha));
        (xm / tail.powf(1.0 / alpha)).min(cap) as u64
    }

    /// Draw the heavy-tailed gap to the next churn arrival. Called only
    /// when churn is enabled (the churn compiler draws the whole arrival
    /// schedule upfront, in arrival order), so a churn-disabled run
    /// performs zero draws from the churn streams by never calling this.
    pub fn churn_interarrival(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_nanos(Self::pareto_ns(
            &mut self.churn_arrival_rng,
            mean.as_nanos(),
        ))
    }

    /// Draw the heavy-tailed resident lifetime of one churn arrival,
    /// from the same stream as the inter-arrival gaps (the compiler
    /// alternates gap/lifetime draws in a fixed order).
    pub fn churn_lifetime(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_nanos(Self::pareto_ns(
            &mut self.churn_arrival_rng,
            mean.as_nanos(),
        ))
    }

    /// Deterministic jitter added to one retry backoff: uniform in
    /// `[0, window]`, one draw from the dedicated retry stream per
    /// scheduled retry (retries are scheduled in chronological order, so
    /// the sequence depends only on the retry schedule).
    pub fn churn_retry_jitter(&mut self, window: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.churn_retry_rng.gen_range(window.as_nanos() + 1))
    }

    /// Decide whether the next churn placement attempt fails transiently
    /// at the control plane: one draw from the churn fault stream per
    /// attempt, and none while the plan's probability is zero.
    pub fn on_churn_placement(&mut self) -> bool {
        if !self.active || self.plan.churn_place_fail_p <= 0.0 {
            return false;
        }
        if self.churn_fault_rng.gen_bool(self.plan.churn_place_fail_p) {
            self.stats.churn_place_fails += 1;
            return true;
        }
        false
    }

    /// Decide whether the next churn boot sticks mid-handshake (partial
    /// boot → timeout + rollback). Deterministic stall-the-Nth outranks
    /// and suppresses the draw for that boot.
    pub fn on_churn_boot(&mut self) -> bool {
        if !self.active {
            return false;
        }
        self.boots_started += 1;
        if self.plan.churn_boot_stall_nth > 0 {
            if self.boots_started == self.plan.churn_boot_stall_nth {
                self.stats.churn_boot_stalls += 1;
                return true;
            }
            if self.plan.churn_boot_stall_p <= 0.0 {
                return false;
            }
        }
        if self.plan.churn_boot_stall_p > 0.0
            && self.churn_fault_rng.gen_bool(self.plan.churn_boot_stall_p)
        {
            self.stats.churn_boot_stalls += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_plan() -> FaultPlan {
        FaultPlan {
            kick_drop_p: 0.05,
            kick_delay_p: 0.05,
            worker_stall_p: 0.02,
            msi_drop_p: 0.01,
            msi_delay_p: 0.02,
            msi_delay: SimDuration::from_micros(30),
            pkt_drop_p: 0.01,
            pkt_dup_p: 0.01,
            pkt_reorder_p: 0.02,
            preempt_storm_period: SimDuration::from_millis(5),
            preempt_storm_p: 0.5,
            pi_unavailable_mask: 0b1,
            pi_fail_after: SimDuration::from_millis(100),
            ..FaultPlan::none()
        }
    }

    #[test]
    fn empty_plan_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::default().is_active());
        assert!(chaos_plan().is_active());
    }

    #[test]
    fn inert_injector_never_injects_and_never_draws() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 0);
        let before = format!("{:?}", inj.kick_rng);
        for _ in 0..1000 {
            assert_eq!(inj.on_guest_kick(), DeliveryFault::Deliver);
            assert_eq!(inj.on_msi(), DeliveryFault::Deliver);
            assert_eq!(inj.on_packet(), PacketFault::Deliver);
            assert_eq!(inj.on_worker_dispatch(), None);
            assert!(inj.on_storm_tick(8).is_empty());
            assert_eq!(inj.on_hostile_kick(0), HostileKick::NONE);
            assert_eq!(inj.on_hostile_eoi(0), 0);
            assert_eq!(inj.on_host_admission(0), None);
            assert!(!inj.on_migration_planned());
            assert!(!inj.on_churn_placement());
            assert!(!inj.on_churn_boot());
        }
        // No RNG state advanced: the clean path is draw-free.
        assert_eq!(before, format!("{:?}", inj.kick_rng));
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultInjector::new(chaos_plan(), 42);
        let mut b = FaultInjector::new(chaos_plan(), 42);
        for _ in 0..5000 {
            assert_eq!(a.on_guest_kick(), b.on_guest_kick());
            assert_eq!(a.on_packet(), b.on_packet());
            assert_eq!(a.on_msi(), b.on_msi());
            assert_eq!(a.on_worker_dispatch(), b.on_worker_dispatch());
            assert_eq!(a.on_storm_tick(4), b.on_storm_tick(4));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "chaos plan injected nothing");
    }

    #[test]
    fn streams_are_isolated_per_injection_point() {
        // Interleaving decisions at other points must not change the
        // decision sequence at a given point.
        let mut lone = FaultInjector::new(chaos_plan(), 7);
        let mut mixed = FaultInjector::new(chaos_plan(), 7);
        let solo: Vec<DeliveryFault> = (0..500).map(|_| lone.on_guest_kick()).collect();
        let interleaved: Vec<DeliveryFault> = (0..500)
            .map(|_| {
                mixed.on_packet();
                mixed.on_msi();
                mixed.on_worker_dispatch();
                mixed.on_guest_kick()
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan {
            pkt_drop_p: 0.1,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 99);
        let drops = (0..100_000)
            .filter(|_| inj.on_packet() == PacketFault::Drop)
            .count();
        let frac = drops as f64 / 100_000.0;
        assert!((frac - 0.1).abs() < 0.01, "drop frac {frac}");
    }

    #[test]
    fn pi_mask_addresses_vms() {
        let plan = FaultPlan {
            pi_unavailable_mask: 0b101,
            ..FaultPlan::none()
        };
        assert!(plan.pi_fails_for_vm(0));
        assert!(!plan.pi_fails_for_vm(1));
        assert!(plan.pi_fails_for_vm(2));
        assert!(!plan.pi_fails_for_vm(64));
        assert!(plan.is_active());
    }

    #[test]
    fn drop_takes_priority_over_delay() {
        let plan = FaultPlan {
            kick_drop_p: 1.0,
            kick_delay_p: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 1);
        for _ in 0..100 {
            assert_eq!(inj.on_guest_kick(), DeliveryFault::Drop);
        }
    }

    fn hostile_plan() -> FaultPlan {
        FaultPlan {
            hostile_vm: 2,
            ring_corrupt_at_kick: 5,
            ring_corruption: RingCorruptionKind::AvailIdxJump,
            kick_storm_p: 0.2,
            kick_storm_burst: 8,
            eoi_storm_p: 0.2,
            eoi_storm_burst: 4,
            desc_loop_p: 0.01,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn hostile_fields_activate_the_plan() {
        assert!(hostile_plan().is_active());
        assert!(hostile_plan().hostile_active());
        assert!(
            !chaos_plan().hostile_active(),
            "chaos plan must stay hostile-free"
        );
        assert!(FaultPlan {
            ring_corrupt_at_kick: 1,
            ..FaultPlan::none()
        }
        .is_active());
    }

    #[test]
    fn hostile_decisions_target_only_the_hostile_vm() {
        let mut inj = FaultInjector::new(hostile_plan(), 42);
        let before = format!("{:?}", inj.hostile_kick_rng);
        for vm in [0u32, 1, 3, 7] {
            for _ in 0..200 {
                assert_eq!(inj.on_hostile_kick(vm), HostileKick::NONE);
                assert_eq!(inj.on_hostile_eoi(vm), 0);
            }
        }
        // Non-target VMs drew nothing: the hostile stream is untouched.
        assert_eq!(before, format!("{:?}", inj.hostile_kick_rng));
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn corruption_fires_exactly_once_at_the_chosen_kick() {
        let plan = FaultPlan {
            hostile_vm: 1,
            ring_corrupt_at_kick: 3,
            ring_corruption: RingCorruptionKind::DescOutOfRange,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 9);
        let decisions: Vec<HostileKick> = (0..10).map(|_| inj.on_hostile_kick(1)).collect();
        for (i, d) in decisions.iter().enumerate() {
            if i == 2 {
                assert_eq!(d.corruption, Some(RingCorruptionKind::DescOutOfRange));
            } else {
                assert_eq!(d.corruption, None, "kick {i}");
            }
            assert_eq!(d.extra_kicks, 0, "no storm enabled");
        }
        assert_eq!(inj.stats().ring_corruptions, 1);
    }

    #[test]
    fn hostile_streams_are_isolated_from_existing_points() {
        // Hostile draws must not shift the pre-existing streams (their
        // forks happen after every old stream) and vice versa.
        let plan = FaultPlan {
            kick_drop_p: 0.1,
            ..hostile_plan()
        };
        let mut lone = FaultInjector::new(plan, 7);
        let mut mixed = FaultInjector::new(plan, 7);
        let solo: Vec<DeliveryFault> = (0..500).map(|_| lone.on_guest_kick()).collect();
        let interleaved: Vec<DeliveryFault> = (0..500)
            .map(|_| {
                mixed.on_hostile_kick(2);
                mixed.on_hostile_eoi(2);
                mixed.on_guest_kick()
            })
            .collect();
        assert_eq!(solo, interleaved);

        // And the old streams seed identically whether or not the hostile
        // family is enabled at all.
        let mut plain = FaultInjector::new(chaos_plan(), 3);
        let mut with_hostile = FaultInjector::new(
            FaultPlan {
                kick_storm_p: 0.5,
                kick_storm_burst: 4,
                hostile_vm: 9,
                ..chaos_plan()
            },
            3,
        );
        for _ in 0..500 {
            assert_eq!(plain.on_guest_kick(), with_hostile.on_guest_kick());
            assert_eq!(plain.on_packet(), with_hostile.on_packet());
        }
    }

    #[test]
    fn storm_bursts_are_sized_and_counted() {
        let plan = FaultPlan {
            hostile_vm: 0,
            kick_storm_p: 1.0,
            kick_storm_burst: 6,
            eoi_storm_p: 1.0,
            eoi_storm_burst: 3,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 5);
        for _ in 0..10 {
            assert_eq!(inj.on_hostile_kick(0).extra_kicks, 6);
            assert_eq!(inj.on_hostile_eoi(0), 3);
        }
        assert_eq!(inj.stats().storm_kicks, 60);
        assert_eq!(inj.stats().storm_eois, 30);
    }

    #[test]
    fn host_fault_fields_activate_the_plan() {
        assert!(
            !chaos_plan().host_fault_active(),
            "chaos plan must stay host-fault-free"
        );
        assert!(!hostile_plan().host_fault_active());
        let crash = FaultPlan {
            host_crash_mask: 0b10,
            host_crash_at: SimDuration::from_millis(50),
            ..FaultPlan::none()
        };
        assert!(crash.host_fault_active());
        assert!(crash.is_active());
        assert!(crash.crashes_host(1));
        assert!(!crash.crashes_host(0));
        assert!(!crash.crashes_host(64));
        let abort = FaultPlan {
            migration_abort_nth: 1,
            ..FaultPlan::none()
        };
        assert!(abort.host_fault_active() && abort.is_active());
    }

    #[test]
    fn for_single_host_projects_degradation_and_zeroes_the_family() {
        let plan = FaultPlan {
            host_crash_mask: 0b1,
            host_crash_at: SimDuration::from_millis(10),
            host_degraded_storm_mask: 0b100,
            host_degraded_storm_p: 0.25,
            host_degraded_storm_period: SimDuration::from_millis(2),
            migration_abort_nth: 2,
            kick_drop_p: 0.05,
            ..FaultPlan::none()
        };
        assert!(plan.degrades_host(2) && !plan.degrades_host(0));
        let healthy = plan.for_single_host(0);
        assert!(!healthy.host_fault_active());
        assert_eq!(healthy.preempt_storm_p, 0.0);
        assert_eq!(healthy.kick_drop_p, 0.05, "VM-level classes pass through");
        let sick = plan.for_single_host(2);
        assert!(
            !sick.host_fault_active(),
            "host family never reaches a machine"
        );
        assert_eq!(sick.preempt_storm_p, 0.25);
        assert_eq!(sick.preempt_storm_period, SimDuration::from_millis(2));
    }

    #[test]
    fn deterministic_crash_and_abort_triggers() {
        let plan = FaultPlan {
            host_crash_mask: 0b101,
            host_crash_at: SimDuration::from_millis(30),
            migration_abort_nth: 2,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 11);
        assert_eq!(inj.on_host_admission(0), Some(SimDuration::from_millis(30)));
        assert_eq!(inj.on_host_admission(1), None);
        assert_eq!(inj.on_host_admission(2), Some(SimDuration::from_millis(30)));
        assert!(!inj.on_migration_planned());
        assert!(inj.on_migration_planned(), "second planned move aborts");
        assert!(!inj.on_migration_planned());
        assert_eq!(inj.stats().host_crashes, 2);
        assert_eq!(inj.stats().migration_aborts, 1);
    }

    #[test]
    fn host_streams_are_isolated_from_existing_points() {
        // Enabling the host family must not shift any pre-existing stream:
        // its decisions draw nothing.
        let mut plain = FaultInjector::new(chaos_plan(), 13);
        let mut with_hosts = FaultInjector::new(
            FaultPlan {
                host_crash_mask: 0b1010,
                host_crash_at: SimDuration::from_millis(5),
                migration_abort_nth: 3,
                ..chaos_plan()
            },
            13,
        );
        for h in 0..16 {
            with_hosts.on_host_admission(h);
            with_hosts.on_migration_planned();
        }
        for _ in 0..500 {
            assert_eq!(plain.on_guest_kick(), with_hosts.on_guest_kick());
            assert_eq!(plain.on_packet(), with_hosts.on_packet());
            assert_eq!(plain.on_msi(), with_hosts.on_msi());
            assert_eq!(plain.on_storm_tick(4), with_hosts.on_storm_tick(4));
        }
    }

    #[test]
    fn churn_fields_activate_the_plan() {
        assert!(
            !chaos_plan().churn_fault_active(),
            "chaos plan must stay churn-free"
        );
        assert!(!hostile_plan().churn_fault_active());
        for plan in [
            FaultPlan {
                churn_place_fail_p: 0.1,
                ..FaultPlan::none()
            },
            FaultPlan {
                churn_boot_stall_p: 0.1,
                ..FaultPlan::none()
            },
            FaultPlan {
                churn_boot_stall_nth: 1,
                ..FaultPlan::none()
            },
        ] {
            assert!(plan.churn_fault_active());
            assert!(plan.is_active());
        }
    }

    #[test]
    fn for_single_host_zeroes_the_churn_family() {
        let plan = FaultPlan {
            churn_place_fail_p: 0.2,
            churn_boot_stall_p: 0.1,
            churn_boot_stall_nth: 1,
            kick_drop_p: 0.05,
            ..FaultPlan::none()
        };
        let host = plan.for_single_host(0);
        assert!(
            !host.churn_fault_active(),
            "churn family never reaches a machine"
        );
        assert_eq!(host.kick_drop_p, 0.05, "VM-level classes pass through");
    }

    #[test]
    fn deterministic_churn_triggers_draw_nothing() {
        let plan = FaultPlan {
            churn_boot_stall_nth: 3,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 11);
        let before = format!("{:?}", inj.churn_fault_rng);
        for _ in 0..3 {
            assert!(!inj.on_churn_placement(), "no placement fault planned");
        }
        assert!(!inj.on_churn_boot());
        assert!(!inj.on_churn_boot());
        assert!(inj.on_churn_boot(), "third boot stalls");
        assert!(!inj.on_churn_boot());
        assert_eq!(before, format!("{:?}", inj.churn_fault_rng));
        assert_eq!(inj.stats().churn_place_fails, 0);
        assert_eq!(inj.stats().churn_boot_stalls, 1);
    }

    #[test]
    fn churn_streams_are_isolated_from_existing_points() {
        // Enabling the churn family must not shift any pre-existing
        // stream: the three new forks happen after every older stream.
        let mut plain = FaultInjector::new(chaos_plan(), 13);
        let mut with_churn = FaultInjector::new(
            FaultPlan {
                churn_place_fail_p: 0.5,
                churn_boot_stall_p: 0.25,
                ..chaos_plan()
            },
            13,
        );
        for _ in 0..64 {
            with_churn.churn_interarrival(SimDuration::from_millis(5));
            with_churn.churn_lifetime(SimDuration::from_millis(20));
            with_churn.churn_retry_jitter(SimDuration::from_micros(100));
            with_churn.on_churn_placement();
            with_churn.on_churn_boot();
        }
        for h in 0..8 {
            assert_eq!(plain.on_host_admission(h), with_churn.on_host_admission(h));
        }
        for _ in 0..500 {
            assert_eq!(plain.on_guest_kick(), with_churn.on_guest_kick());
            assert_eq!(plain.on_packet(), with_churn.on_packet());
            assert_eq!(plain.on_msi(), with_churn.on_msi());
            assert_eq!(plain.on_storm_tick(4), with_churn.on_storm_tick(4));
        }
    }

    #[test]
    fn churn_draws_are_heavy_tailed_and_bounded() {
        let mut inj = FaultInjector::new(
            FaultPlan {
                churn_place_fail_p: 0.01,
                ..FaultPlan::none()
            },
            21,
        );
        let mean = SimDuration::from_millis(2);
        let draws: Vec<SimDuration> = (0..20_000).map(|_| inj.churn_interarrival(mean)).collect();
        let lo = mean.as_nanos() / 2;
        let hi = mean.as_nanos() * 32;
        for d in &draws {
            assert!(
                d.as_nanos() >= lo && d.as_nanos() <= hi,
                "draw {d:?} out of bounds"
            );
        }
        let avg = draws.iter().map(|d| d.as_nanos()).sum::<u64>() / draws.len() as u64;
        assert!(
            (avg as f64) > 0.6 * mean.as_nanos() as f64
                && (avg as f64) < 1.4 * mean.as_nanos() as f64,
            "empirical mean {avg} too far from scale {}",
            mean.as_nanos()
        );
        // Heavy tail: some draws land well past 4× the mean.
        assert!(draws.iter().any(|d| d.as_nanos() > mean.as_nanos() * 4));
        // Retry jitter stays inside its window.
        for _ in 0..1000 {
            let j = inj.churn_retry_jitter(SimDuration::from_micros(50));
            assert!(j <= SimDuration::from_micros(50));
        }
    }

    #[test]
    fn churn_streams_draw_their_pinned_values() {
        // The churn streams fork after every other stream, two retired
        // ones included; these values pin their seeds at seed 1, so
        // dropping or adding a fork before them fails here.
        let plan = FaultPlan {
            churn_place_fail_p: 0.5,
            churn_boot_stall_p: 0.5,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 1);
        let gaps: Vec<u64> = (0..3)
            .map(|_| {
                inj.churn_interarrival(SimDuration::from_millis(4))
                    .as_nanos()
            })
            .collect();
        assert_eq!(gaps, [2_632_483, 2_245_341, 2_260_305]);
        let jitter: Vec<u64> = (0..3)
            .map(|_| {
                inj.churn_retry_jitter(SimDuration::from_micros(200))
                    .as_nanos()
            })
            .collect();
        assert_eq!(jitter, [146_442, 120_854, 187_283]);
        let fails: Vec<bool> = (0..8).map(|_| inj.on_churn_placement()).collect();
        assert_eq!(fails, [false, false, true, true, true, true, true, false]);
    }
}
