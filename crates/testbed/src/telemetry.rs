//! The simulated-metrics recorder.
//!
//! Every discrete event of the simulated event path is recorded once, by
//! one `Machine::note_*` call at the site where it happens: an exit, a
//! guest-mode interval, an MSI, a kick, a vhost turn, a containment
//! action, a watchdog recovery, an interrupt's handler and EOI, a
//! migration or control-plane phase, an rx-latency sample. That call
//! fans the fact out to every consumer of it:
//!
//! * the VM's [`VmLedger`], always on. It lives in `VmState`, so a live
//!   migration carries it with the VM. `RunResult` builds its exit
//!   counts, TIG, delivery-mode counts, rx-latency figures, watchdog and
//!   backpressure counts from it, and the liveness checker reads it;
//! * the breadcrumb ring, enabled only under an active fault plan; the
//!   liveness checker dumps it when an invariant trips;
//! * the windowed series and its annotation stream ([`TelemetryHooks`]
//!   around [`es2_metrics::TelemetryRecorder`]), only when
//!   `Params::telemetry` is set. The hooks also own the vhost workers'
//!   on-core intervals;
//! * the span tracker ([`SpanTracker`]), only when `Params::trace` is
//!   set. The probes also own the correlation-ID sidecars it keys spans
//!   by (`Vcpu::corr`, the vhost pool's kick slot).
//!
//! No other module reads or writes a recorder. All of them consume
//! *sim-time* only, never touch the RNG and schedule no events (series
//! windows are assigned at record time), so traced and telemetered runs
//! are bitwise identical to plain ones (`repro selfcheck` compares that).

use es2_apic::Vector;
use es2_hypervisor::{ExitReason, ExitStats};
use es2_metrics::telemetry::{TelemetryGeometry, TelemetryRecorder, TelemetryReport, WINDOW_NS};
use es2_metrics::{BackpressureStats, GuestTime, LatencySummary, SpanReport, VmModeCounts};
use es2_sim::trace::Tracer;
use es2_sim::{SimDuration, SimTime};
use es2_virtio::{HandlerId, RingError};

use crate::machine::Machine;
use crate::params::Params;
use crate::spans::SpanTracker;

/// Annotation capacity per collector. Annotations are discrete events
/// (faults, migrations, quarantines, watchdog actions) whose population
/// is bounded by the fault plan, far below this; the cap is a backstop,
/// with drops counted in the report.
const ANN_CAPACITY: usize = 65_536;

/// Breadcrumb-ring capacity: the last records a post-mortem shows.
const RING_CAPACITY: usize = 256;

/// How a handler kick was signalled. It decides which pickup stage
/// closes the request span and what the event adds to the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KickOrigin {
    /// A plain guest kick (I/O-instruction exit or PI doorbell).
    Kick,
    /// A kick deferred by fault injection (`FaultPlan::kick_delay`).
    Delayed,
    /// A watchdog re-kick covering a dropped notification.
    Watchdog,
    /// An ES2 polling self-requeue: the next pickup is a polled one.
    Requeue,
}

/// Why a device MSI is being routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MsiOrigin {
    /// The device raised it.
    Device,
    /// A watchdog re-raise of a lost interrupt.
    Watchdog,
    /// A stale MSI from a host the VM left, re-raised over the watchdog
    /// path after a migration.
    Retarget,
}

/// One VM's always-on ledger: what `perf-kvm stat` and the run's
/// latency probes would report for it.
///
/// Exits and guest time count inside the measurement window as this VM
/// saw it open. A VM state created mid-window (a cold restart, a churn
/// boot, the slot a migration vacates) never sees it open: its exits
/// and guest time have no window length to be rates of. Rx-latency
/// samples need no length, so they count whenever the machine's window
/// is open (`Machine::note_rx_latency`). Every other count is lifetime.
#[derive(Clone, Debug)]
pub(crate) struct VmLedger {
    /// Start of the measurement window while it is open for this VM.
    window_open: Option<SimTime>,
    /// Exits per reason, lifetime and windowed, and the window length.
    pub(crate) exits: ExitStats,
    /// Guest-mode time per vCPU.
    guest: GuestTime,
    /// Delivery-mode counts.
    pub(crate) modes: VmModeCounts,
    /// In-window rx latencies.
    pub(crate) rx: LatencySummary,
    /// Throttled kicks, budget deferrals, storm writes, quarantines and
    /// resets.
    pub(crate) bp: BackpressureStats,
    /// Device interrupts parked on an offline vCPU by the offline-list
    /// prediction.
    pub(crate) parked_irqs: u64,
    /// Parked interrupts migrated to a sibling that came online sooner.
    pub(crate) migrated_irqs: u64,
    /// Lost kicks re-issued by the liveness watchdog.
    pub(crate) watchdog_rekicks: u64,
    /// Lost device interrupts re-raised by the liveness watchdog.
    pub(crate) watchdog_reraises: u64,
    /// Guest-side TCP retransmission timeouts fired.
    pub(crate) guest_rtos: u64,
    /// TX enqueues dropped on a full ring from IRQ context.
    pub(crate) dropped_tx: u64,
    /// Device interrupts (TX-clean + RX, not timers) handled per vCPU:
    /// the per-queue MSI steering ledger.
    pub(crate) device_irqs_per_vcpu: Vec<u64>,
}

impl VmLedger {
    /// An empty ledger for a VM with `vcpus` vCPUs, window not open.
    pub(crate) fn new(vcpus: usize) -> Self {
        VmLedger {
            window_open: None,
            exits: ExitStats::default(),
            guest: GuestTime::new(vcpus),
            modes: VmModeCounts::default(),
            rx: LatencySummary::new(),
            bp: BackpressureStats::default(),
            parked_irqs: 0,
            migrated_irqs: 0,
            watchdog_rekicks: 0,
            watchdog_reraises: 0,
            guest_rtos: 0,
            dropped_tx: 0,
            device_irqs_per_vcpu: vec![0; vcpus],
        }
    }

    /// Open the measurement window at `now` (end of warm-up).
    pub(crate) fn open_window(&mut self, now: SimTime) {
        self.window_open = Some(now);
    }

    /// Close the measurement window at `now`: guest intervals in
    /// progress count up to `now`, and the window length is fixed.
    pub(crate) fn close_window(&mut self, now: SimTime) {
        if let Some(open) = self.window_open.take() {
            self.guest.close_window(open, now);
            self.exits.window = now.since(open);
        }
    }

    fn exit(&mut self, reason: ExitReason) {
        self.exits.lifetime[reason.idx()] += 1;
        if self.window_open.is_some() {
            self.exits.windowed[reason.idx()] += 1;
        }
    }

    /// Mean time-in-guest percentage across the VM's vCPUs (0 without a
    /// closed window).
    pub(crate) fn tig_percent(&self) -> f64 {
        self.guest.percent(self.exits.window)
    }
}

/// The windowed series collector; owned by `Machine` when telemetry is
/// on.
#[derive(Clone, Debug)]
pub(crate) struct TelemetryHooks {
    rec: TelemetryRecorder,
    /// Per-(VM, worker) on-core start instant, `vm * workers + w`.
    on_core_since: Vec<Option<u64>>,
    workers_per_vm: usize,
}

impl TelemetryHooks {
    /// A collector for `num_vms` VMs with the given per-VM shape.
    fn new(num_vms: usize, workers_per_vm: usize, queues_per_vm: usize, exit_kinds: usize) -> Self {
        let workers = workers_per_vm.max(1);
        let geom = TelemetryGeometry {
            width_ns: WINDOW_NS,
            num_vms,
            workers_per_vm: workers,
            queues_per_vm: queues_per_vm.max(1),
            exit_kinds,
        };
        TelemetryHooks {
            rec: TelemetryRecorder::new(geom, ANN_CAPACITY),
            on_core_since: vec![None; num_vms * workers],
            workers_per_vm: workers,
        }
    }

    #[inline]
    fn worker_slot(&self, vm: u32, w: u32) -> usize {
        vm as usize * self.workers_per_vm + (w as usize).min(self.workers_per_vm - 1)
    }

    /// Close every open worker interval at `end_ns` and produce the
    /// report.
    fn finish(mut self, end_ns: u64) -> TelemetryReport {
        for slot in 0..self.on_core_since.len() {
            if let Some(since) = self.on_core_since[slot].take() {
                let vm = (slot / self.workers_per_vm) as u32;
                let w = slot % self.workers_per_vm;
                self.rec.record_worker_slice(vm, w, since, end_ns);
            }
        }
        self.rec.finish()
    }
}

/// The three optional consumers the probes feed besides the ledger.
pub(crate) struct Recorders {
    /// Breadcrumb ring for post-mortem dumps.
    ring: Tracer,
    /// Windowed series (`Params::telemetry`).
    tel: Option<Box<TelemetryHooks>>,
    /// Flight recorder (`Params::trace`).
    spans: Option<Box<SpanTracker>>,
}

impl Recorders {
    /// The recorders `p` asks for over `num_vms` VMs of the given shape;
    /// the ring records only under an active fault plan.
    pub(crate) fn new(p: &Params, num_vms: usize, workers: usize, pairs: usize, plan_active: bool) -> Self {
        let mut ring = Tracer::new(RING_CAPACITY);
        ring.set_enabled(plan_active);
        Recorders {
            ring,
            tel: p
                .telemetry
                .then(|| Box::new(TelemetryHooks::new(num_vms, workers, pairs, ExitReason::COUNT))),
            spans: p
                .trace
                .then(|| Box::new(SpanTracker::new(num_vms, workers, p.trace_events as usize))),
        }
    }
}

impl Machine {
    // ---------------- exits, guest time, deliveries ----------------

    /// One VM exit of `reason` on vCPU `idx` of `vm`. It also ends the
    /// vCPU's guest-mode interval, if one is in progress (a spurious-EOI
    /// storm write traps from root mode, so it has none).
    pub(crate) fn note_exit(&mut self, vm: u32, idx: u32, reason: ExitReason) {
        let now = self.now;
        let ledger = &mut self.vms[vm as usize].ledger;
        ledger.exit(reason);
        let since = ledger.guest.leave(idx as usize, now, ledger.window_open);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_exit(vm, reason.idx(), now.as_nanos());
            if let Some(since) = since {
                t.rec
                    .record_guest_slice(vm, since.as_nanos(), now.as_nanos());
            }
        }
    }

    /// vCPU `idx` of `vm` enters guest mode. The series records the
    /// interval when it ends.
    pub(crate) fn note_guest_enter(&mut self, vm: u32, idx: u32) {
        self.vms[vm as usize]
            .ledger
            .guest
            .enter(idx as usize, self.now);
    }

    /// One MSI injected into `vm`: `posted` = exit-less posted path,
    /// otherwise the emulated (exit-taking) path.
    pub(crate) fn note_msi(&mut self, vm: u32, posted: bool) {
        let modes = &mut self.vms[vm as usize].ledger.modes;
        if posted {
            modes.posted += 1;
        } else {
            modes.emulated += 1;
        }
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_msi(vm, self.now.as_nanos(), posted);
        }
    }

    /// One end-to-end rx latency sample of `vm`, counted by the ledger
    /// only inside the measurement window.
    pub(crate) fn note_rx_latency(&mut self, vm: u32, lat_ns: u64) {
        if self.window_open {
            self.vms[vm as usize].ledger.rx.add(lat_ns);
        }
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_rx_latency(vm, self.now.as_nanos(), lat_ns);
        }
    }

    /// vCPU `idx` of `vm` left its core. `preempted_in_guest` marks the
    /// forced exit a preemption in guest mode takes; pending interrupt
    /// spans aimed at the vCPU start charging scheduling delay.
    pub(crate) fn note_vcpu_sched_out(&mut self, vm: u32, idx: u32, preempted_in_guest: bool) {
        if preempted_in_guest {
            self.note_exit(vm, idx, ExitReason::Other);
        }
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_vcpu_sched_out(vm, idx, self.now.as_nanos());
        }
    }

    /// vCPU `idx` of `vm` got a core back.
    pub(crate) fn note_vcpu_sched_in(&mut self, vm: u32, idx: u32) {
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_vcpu_sched_in(vm, idx, self.now.as_nanos());
        }
    }

    // ---------------- guest → host ----------------

    /// A kick signal for handler `h` of `vm` is queued on its worker.
    /// A span opens unless one already rides on the pending kick. The
    /// ring skips polling requeues: they are the handler's own schedule,
    /// and would crowd the signals out of a post-mortem.
    pub(crate) fn note_kick_signal(&mut self, vm: u32, h: HandlerId, origin: KickOrigin) {
        let now = self.now;
        let tag = match origin {
            KickOrigin::Kick => Some("kick"),
            KickOrigin::Delayed => Some("kick-delayed"),
            KickOrigin::Watchdog => Some("wd-rekick"),
            KickOrigin::Requeue => None,
        };
        if let Some(tag) = tag {
            self.rec.ring.record(now, tag, vm as u64, h.0 as u64);
        }
        if origin == KickOrigin::Watchdog {
            self.vms[vm as usize].ledger.watchdog_rekicks += 1;
            if let Some(t) = self.rec.tel.as_deref_mut() {
                t.rec.annotate(now.as_nanos(), vm, "wd-rekick", h.0 as u64);
            }
        }
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_kick_signal(vm, &mut self.vms[vm as usize].worker, h, origin, now.as_nanos());
        }
    }

    /// A guest kick for `h` deferred by the admission throttle.
    pub(crate) fn note_kick_throttled(&mut self, vm: u32, h: HandlerId) {
        self.vms[vm as usize].ledger.bp.throttled_kicks += 1;
        self.rec
            .ring
            .record(self.now, "kick-throttled", vm as u64, h.0 as u64);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_throttled_kick(vm, self.now.as_nanos());
        }
    }

    /// The I/O-instruction exit that carried a kick of `vm`: its
    /// root-mode cost is the span's kick-exit stage.
    pub(crate) fn note_kick_exit(&mut self, vm: u32) {
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            let cost = self.p.costs.exit_cost(ExitReason::IoInstruction).as_nanos();
            tr.on_kick_exit(vm, cost, self.window_open);
        }
    }

    /// One spurious doorbell write of a hostile kick storm, drained on
    /// vCPU `idx` of `vm`.
    pub(crate) fn note_spurious_kick(&mut self, vm: u32, idx: u32) {
        self.vms[vm as usize].ledger.bp.spurious_kicks += 1;
        self.rec
            .ring
            .record(self.now, "storm-kick", vm as u64, idx as u64);
    }

    /// A hostile guest follows its EOI on vCPU `idx` with `writes`
    /// spurious EOI writes.
    pub(crate) fn note_eoi_storm(&mut self, vm: u32, idx: u32, writes: u32) {
        self.vms[vm as usize].ledger.bp.spurious_eois += writes as u64;
        self.rec
            .ring
            .record(self.now, "eoi-storm", vm as u64, idx as u64);
    }

    /// A TX enqueue of `vm` dropped on a full ring from IRQ context.
    pub(crate) fn note_tx_drop(&mut self, vm: u32) {
        self.vms[vm as usize].ledger.dropped_tx += 1;
    }

    /// A guest-side TCP retransmission timeout fired in `vm`.
    pub(crate) fn note_guest_rto(&mut self, vm: u32) {
        self.vms[vm as usize].ledger.guest_rtos += 1;
        self.rec.ring.record(self.now, "guest-rto", vm as u64, 0);
    }

    // ---------------- vhost workers ----------------

    /// Worker `w` of `vm` went on-core.
    pub(crate) fn note_worker_on_core(&mut self, vm: u32, w: u32) {
        if let Some(t) = self.rec.tel.as_deref_mut() {
            let slot = t.worker_slot(vm, w);
            t.on_core_since[slot].get_or_insert(self.now.as_nanos());
        }
    }

    /// Worker `w` of `vm` went off-core; the series slices its residency
    /// into windows.
    pub(crate) fn note_worker_off_core(&mut self, vm: u32, w: u32) {
        if let Some(t) = self.rec.tel.as_deref_mut() {
            let slot = t.worker_slot(vm, w);
            if let Some(since) = t.on_core_since[slot].take() {
                t.rec
                    .record_worker_slice(vm, w as usize, since, self.now.as_nanos());
            }
        }
    }

    /// Ingress work was queued on worker `w` of `vm` outside a turn
    /// boundary: sample its backlog depth.
    pub(crate) fn note_worker_queued(&mut self, vm: u32, w: u32) {
        if let Some(t) = self.rec.tel.as_deref_mut() {
            let pending = self.vms[vm as usize].worker.pending_on(w as usize) as u64;
            t.rec
                .record_worker_pending(vm, w as usize, self.now.as_nanos(), pending);
        }
    }

    /// A handler turn for `h` begins on worker `w` of `vm`. It closes the
    /// signal→pickup stage of the span riding on the pending kick, and
    /// the series samples the backlog behind the turn.
    pub(crate) fn note_turn_begin(&mut self, vm: u32, w: u32, h: HandlerId) {
        let now = self.now.as_nanos();
        let worker = &mut self.vms[vm as usize].worker;
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            let corr = worker.take_kick_corr(h);
            let slot = vm as usize * worker.num_workers() + w as usize;
            tr.on_turn_begin(vm, slot, corr, now, self.window_open);
        }
        if let Some(t) = self.rec.tel.as_deref_mut() {
            let pending = worker.pending_on(w as usize) as u64;
            t.rec.record_worker_turn(vm, w as usize, now);
            t.rec.record_worker_pending(vm, w as usize, now, pending);
        }
    }

    /// The handler turn on worker `w` of `vm` ended.
    pub(crate) fn note_turn_end(&mut self, vm: u32, w: u32) {
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            let slot = vm as usize * self.vms[vm as usize].worker.num_workers() + w as usize;
            tr.on_turn_end(vm, slot, self.now.as_nanos(), self.window_open);
        }
    }

    /// A TX handler turn of `vm` cut short by the service budget.
    pub(crate) fn note_budget_deferral(&mut self, vm: u32) {
        self.vms[vm as usize].ledger.bp.budget_deferrals += 1;
        self.rec.ring.record(self.now, "budget-defer", vm as u64, 0);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_budget_deferral(vm, self.now.as_nanos());
        }
    }

    /// The queue of handler `h` failed ring validation with `err` and
    /// was quarantined, discarding `dropped` exposed buffers.
    pub(crate) fn note_quarantine(&mut self, vm: u32, h: HandlerId, err: RingError, dropped: usize) {
        let bp = &mut self.vms[vm as usize].ledger.bp;
        bp.quarantines += 1;
        bp.quarantine_dropped += dropped as u64;
        let tag = match err {
            RingError::DescOutOfRange { .. } => "quarantine:desc-oob",
            RingError::AvailIdxJump { .. } => "quarantine:avail-jump",
            RingError::AvailIdxRegress { .. } => "quarantine:avail-regress",
            RingError::DescChainLoop { .. } => "quarantine:desc-loop",
            RingError::ChainTooLong { .. } => "quarantine:chain-long",
            RingError::UsedOverflow { .. } => "quarantine:used-overflow",
        };
        self.rec.ring.record(self.now, tag, vm as u64, h.0 as u64);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_quarantine(vm, self.now.as_nanos());
            t.rec
                .annotate(self.now.as_nanos(), vm, "quarantine", h.0 as u64);
        }
    }

    /// The guest reset the quarantined queue of handler `h`.
    pub(crate) fn note_queue_reset(&mut self, vm: u32, h: HandlerId) {
        self.vms[vm as usize].ledger.bp.resets += 1;
        self.rec
            .ring
            .record(self.now, "queue-reset", vm as u64, h.0 as u64);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_reset(vm, self.now.as_nanos());
            t.rec
                .annotate(self.now.as_nanos(), vm, "queue-reset", h.0 as u64);
        }
    }

    /// A TX packet of `bytes` left `vm` for the wire.
    pub(crate) fn note_tx(&mut self, vm: u32, bytes: u32) {
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_tx(vm, self.now.as_nanos(), bytes as u64);
        }
    }

    /// An RX packet of `bytes` landed in `vm`'s ring on queue `qi`.
    pub(crate) fn note_rx(&mut self, vm: u32, qi: usize, bytes: u32) {
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.record_rx(vm, self.now.as_nanos(), qi, bytes as u64);
        }
    }

    // ---------------- host → guest ----------------

    /// A device MSI for `vector` of `vm` was routed to vCPU `target`
    /// (`redirected` by ES2; `parked` on it while it is offline) and is
    /// about to be delivered. This runs before delivery, which can chain
    /// synchronously into the handler that closes the span's delivery
    /// stage.
    pub(crate) fn note_msi_raise(
        &mut self,
        vm: u32,
        target: u32,
        vector: Vector,
        redirected: bool,
        parked: bool,
        origin: MsiOrigin,
    ) {
        let now = self.now;
        let vmi = vm as usize;
        let tag = match origin {
            MsiOrigin::Device => "msi",
            MsiOrigin::Watchdog => "wd-reraise",
            MsiOrigin::Retarget => "mig-retarget",
        };
        self.rec.ring.record(now, tag, vm as u64, vector as u64);
        let ledger = &mut self.vms[vmi].ledger;
        ledger.parked_irqs += parked as u64;
        if origin == MsiOrigin::Watchdog {
            ledger.watchdog_reraises += 1;
        }
        if let Some(t) = self.rec.tel.as_deref_mut() {
            if origin == MsiOrigin::Watchdog {
                t.rec
                    .annotate(now.as_nanos(), vm, "wd-reraise", vector as u64);
            }
            if redirected {
                t.rec.record_msi_redirected(vm, now.as_nanos());
            }
        }
        let Some(tr) = self.rec.spans.as_deref_mut() else {
            return;
        };
        if origin == MsiOrigin::Retarget {
            tr.migration_phase(vm, "mig-retarget", now.as_nanos(), 0, vector as u64);
        }
        // The vector's sidecar carries the span of a raise still pending
        // on it (IRR coalescing: the first raise owns the span).
        let watchdog = origin != MsiOrigin::Device;
        let vcpu = &self.vms[vmi].vcpus[target as usize];
        if vcpu.corr.peek(vector) != 0 {
            tr.on_msi_coalesced(watchdog);
            return;
        }
        let running = vcpu.running;
        let off_core_ns = self
            .sched
            .descheduled_since(self.vms[vmi].vcpu_tids[target as usize])
            .map_or(0, |t| now.saturating_since(t).as_nanos());
        let corr = tr.on_msi_raised(
            vm,
            target,
            vector,
            redirected,
            running,
            watchdog,
            off_core_ns,
            now.as_nanos(),
        );
        self.vms[vmi].vcpus[target as usize].corr.set(vector, corr);
    }

    /// A parked interrupt for `vector` moved from offline vCPU `from` to
    /// `to`, which is being scheduled in at this instant: its span
    /// follows it and its parked interval closes.
    pub(crate) fn note_irq_migrated(&mut self, vm: u32, from: u32, to: u32, vector: Vector) {
        let vmi = vm as usize;
        self.vms[vmi].ledger.migrated_irqs += 1;
        self.rec
            .ring
            .record(self.now, "irq-migrate", vm as u64, vector as u64);
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            let corr = self.vms[vmi].vcpus[from as usize].corr.take(vector);
            if corr != 0 {
                tr.on_migrated(corr, to, self.now.as_nanos());
                self.vms[vmi].vcpus[to as usize].corr.set(vector, corr);
            }
        }
    }

    /// The guest handler for `vector` begins on vCPU `idx` of `vm`;
    /// `device` if the vector belongs to one of its queues. A traced
    /// span closes its delivery stages here.
    pub(crate) fn note_irq_begin(&mut self, vm: u32, idx: u32, vector: Vector, device: bool) {
        let vmi = vm as usize;
        if device {
            self.vms[vmi].ledger.device_irqs_per_vcpu[idx as usize] += 1;
        }
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            let corr = self.vms[vmi].vcpus[idx as usize].corr.take(vector);
            tr.on_irq_begin(vm, idx, corr, self.now.as_nanos(), self.window_open);
        }
    }

    /// The innermost guest handler on vCPU `idx` of `vm` finished; its
    /// EOI sequence starts.
    pub(crate) fn note_handler_end(&mut self, vm: u32, idx: u32) {
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_handler_end(vm, idx, self.now.as_nanos(), self.window_open);
        }
    }

    /// EOI completed on vCPU `idx` of `vm`.
    pub(crate) fn note_eoi(&mut self, vm: u32, idx: u32) {
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_eoi_done(vm, idx, self.now.as_nanos(), self.window_open);
        }
    }

    /// Posted delivery of vCPU `idx` of `vm` degraded to the emulated
    /// path.
    pub(crate) fn note_pi_degradation(&mut self, vm: u32, idx: u32) {
        self.faults.note_pi_degradation();
        self.vms[vm as usize].ledger.modes.degradations += 1;
        let now = self.now;
        self.rec
            .ring
            .record(now, "pi-degrade", vm as u64, idx as u64);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.annotate(now.as_nanos(), vm, "pi-degrade", idx as u64);
        }
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_degraded(vm, idx, now.as_nanos());
        }
    }

    // ---------------- migration and control plane ----------------

    /// `vm` pauses for a live migration: a `pause`, then a `copy` of
    /// `dirty` units. Its span IDs reference this host's tracker and
    /// cannot complete elsewhere (another tracker may have issued the
    /// same IDs), so its vector and kick sidecars are cleared.
    pub(crate) fn note_mig_pause(&mut self, vm: u32, dirty: u64, pause: SimDuration, copy: SimDuration) {
        let now = self.now;
        self.rec.ring.record(now, "mig-pause", vm as u64, dirty);
        let Some(sp) = self.rec.spans.as_deref_mut() else {
            return;
        };
        let state = &mut self.vms[vm as usize];
        for p in &state.pairs {
            state.worker.take_kick_corr(p.tx_h);
            state.worker.take_kick_corr(p.rx_h);
        }
        for v in &mut state.vcpus {
            for p in &state.pairs {
                v.corr.take(p.tx_vector);
                v.corr.take(p.rx_vector);
            }
            v.corr.take(es2_apic::vectors::LOCAL_TIMER_VECTOR);
        }
        sp.migration_phase(vm, "mig-pause", now.as_nanos(), pause.as_nanos(), dirty);
        sp.migration_phase(vm, "mig-copy", (now + pause).as_nanos(), copy.as_nanos(), dirty);
    }

    /// A migrated `vm` resumes here, `resume` long, after a `blackout`.
    pub(crate) fn note_mig_resume(&mut self, vm: u32, resume: SimDuration, blackout: SimDuration) {
        self.rec.ring.record(self.now, "mig-resume", vm as u64, 0);
        if let Some(sp) = self.rec.spans.as_deref_mut() {
            let (at, dur) = (self.now.as_nanos(), resume.as_nanos());
            sp.migration_phase(vm, "mig-resume", at, dur, blackout.as_nanos());
        }
    }

    /// A control-plane step for `vm` that joins the annotation stream
    /// ("migrate-start", "vm-boot", "vm-depart", "admit", …).
    pub(crate) fn note_control(&mut self, vm: u32, kind: &'static str, arg: u64) {
        self.rec.ring.record(self.now, kind, vm as u64, arg);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.rec.annotate(self.now.as_nanos(), vm, kind, arg);
        }
    }

    /// An event only a post-mortem reads: a dropped kick, a hostile ring
    /// corruption, a control-plane error, a retired peer.
    pub(crate) fn note_breadcrumb(&mut self, vm: u32, tag: &'static str, arg: u64) {
        self.rec.ring.record(self.now, tag, vm as u64, arg);
    }

    // ---------------- hand-off ----------------

    /// The breadcrumb ring as the liveness post-mortem prints it.
    pub(crate) fn ring_dump(&self) -> String {
        let ring = &self.rec.ring;
        format!(
            "--- tracer ring (last {} of {} records) ---\n{}",
            ring.len(),
            ring.recorded_total(),
            ring.dump()
        )
    }

    /// Seal the span tracker and close the series at the current
    /// instant, running every guest and worker interval still in
    /// progress up to it.
    pub(crate) fn finish_recorders(&mut self) -> (Option<SpanReport>, Option<TelemetryReport>) {
        let spans = self.rec.spans.take().map(|tr| tr.finish());
        let Some(mut t) = self.rec.tel.take() else {
            return (spans, None);
        };
        let end = self.now.as_nanos();
        for (vm, state) in self.vms.iter().enumerate() {
            for since in state.ledger.guest.in_progress() {
                t.rec.record_guest_slice(vm as u32, since.as_nanos(), end);
            }
        }
        (spans, Some(t.finish(end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn a_migration_pause_clears_every_span_sidecar() {
        use crate::{Topology, WorkloadSpec};
        let params = Params {
            trace: true,
            ..Params::fast_test()
        };
        let cfg = es2_core::EventPathConfig::pi_h_r(4);
        let mut m = Machine::new(cfg, Topology::micro(), WorkloadSpec::Idle, params, 1);
        let (h, vector) = (m.vms[0].pairs[0].tx_h, m.vms[0].pairs[0].rx_vector);
        m.note_kick_signal(0, h, KickOrigin::Kick);
        m.vms[0].vcpus[0].corr.set(vector, 7);
        assert_ne!(m.vms[0].worker.kick_corr(h), 0);
        m.note_mig_pause(0, 0, SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(m.vms[0].worker.kick_corr(h), 0);
        assert_eq!(m.vms[0].vcpus[0].corr.peek(vector), 0);
    }

    #[test]
    fn finish_closes_open_intervals() {
        let mut t = TelemetryHooks::new(2, 2, 1, 4);
        let slot = t.worker_slot(0, 1);
        t.on_core_since[slot] = Some(800_000);
        let rep = t.finish(1_200_000);
        assert_eq!(rep.windows.len(), 2);
        // Worker (0,1) on-core 0.2ms + 0.2ms.
        assert_eq!(rep.windows[0].workers[1].on_core_ns, 200_000);
        assert_eq!(rep.windows[1].workers[1].on_core_ns, 200_000);
    }

    #[test]
    fn enter_leave_guest_is_idempotent() {
        let mut l = VmLedger::new(1);
        l.open_window(t(0));
        assert_eq!(l.guest.leave(0, t(50), l.window_open), None);
        l.guest.enter(0, t(100));
        l.guest.enter(0, t(200)); // ignored: interval already in progress
        assert_eq!(l.guest.leave(0, t(300), l.window_open), Some(t(100)));
        assert_eq!(l.guest.leave(0, t(400), l.window_open), None);
        l.close_window(t(1000));
        assert!((l.tig_percent() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn exits_count_only_inside_the_window() {
        let mut l = VmLedger::new(1);
        l.exit(ExitReason::IoInstruction); // warm-up
        l.open_window(t(100));
        l.exit(ExitReason::IoInstruction);
        l.close_window(t(200));
        l.exit(ExitReason::IoInstruction); // after the close
        assert_eq!(l.exits.total(ExitReason::IoInstruction), 3);
        assert_eq!(l.exits.windowed[ExitReason::IoInstruction.idx()], 1);
        assert!((l.exits.rate(ExitReason::IoInstruction) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn a_window_never_opened_counts_nothing() {
        let mut l = VmLedger::new(1);
        l.guest.enter(0, t(0));
        l.exit(ExitReason::ApicAccess);
        l.guest.leave(0, t(100), l.window_open);
        l.close_window(t(200));
        assert_eq!(l.tig_percent(), 0.0);
        assert_eq!(l.exits.total(ExitReason::ApicAccess), 1);
        assert_eq!(l.exits.total_rate(), 0.0);
    }
}
