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
//! * the windowed series and its annotation stream
//!   ([`es2_metrics::TelemetryRecorder`]), only when `Params::telemetry`
//!   is set. The recorder also owns the vhost workers' on-core intervals;
//! * the span tracker ([`SpanTracker`]), only when `Params::trace` is
//!   set. It alone correlates events with open spans: the probes hand it
//!   where an event happened (VM, vCPU, vector, handler), never an ID.
//!   A probe that discards pending state (a quarantine, a migration
//!   pause, a slot rebuild) tells it which spans can no longer close.
//!
//! The ledger counts in the series' own row type, [`VmWin`]: a fact both
//! keep (an exit, an MSI, an rx-latency sample, a containment action) is
//! one `VmWin` update, applied to each row that counts it
//! (`Machine::count`), so the two cannot disagree on what it adds.
//!
//! No other module reads or writes a recorder. All of them consume
//! *sim-time* only, never touch the RNG and schedule no events (series
//! windows are assigned at record time), so traced and telemetered runs
//! are bitwise identical to plain ones (`repro selfcheck` compares that).

use es2_apic::Vector;
use es2_hypervisor::{exit_cost, ExitReason, ExitStats};
use es2_metrics::telemetry::{
    TelemetryGeometry, TelemetryRecorder, TelemetryReport, VmWin, WINDOW_NS,
};
use es2_metrics::{BackpressureStats, GuestTime, Histogram, SpanReport, VmModeCounts};
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
    /// A kick deferred by fault injection (`FaultPlan::kick_delay_p`).
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
/// It counts in two rows of the series' type. `life` counts since this
/// state was built: exits, MSI delivery modes, throttled kicks,
/// quarantines and resets. `win` counts inside the
/// measurement window: exits while this VM saw it open, and rx-latency
/// samples while the machine's window is open. A VM state created
/// mid-window (a cold restart, a churn boot, the slot a migration
/// vacates) never sees it open: its exits and guest time have no window
/// length to be rates of. Rx-latency samples need no length
/// (`Machine::note_rx_latency`). Beside the rows it keeps only what no
/// row has.
#[derive(Clone, Debug)]
pub(crate) struct VmLedger {
    /// Start of the measurement window while it is open for this VM.
    window_open: Option<SimTime>,
    /// Length of the measurement window (zero until it closes).
    window: SimDuration,
    /// Counts since this state was built.
    pub(crate) life: VmWin,
    /// Counts inside the measurement window.
    pub(crate) win: VmWin,
    /// Guest-mode time per vCPU: TIG is the mean of per-vCPU
    /// percentages, which a row's summed `guest_ns` cannot give.
    guest: GuestTime,
    /// In-window rx latencies in whole µs, for the exact p99.
    pub(crate) rx_us: Histogram,
    /// Times a vCPU of this VM degraded posted→emulated.
    degradations: u64,
    /// Spurious doorbell writes of a kick storm.
    spurious_kicks: u64,
    /// Spurious EOI writes of an EOI storm.
    spurious_eois: u64,
    /// Exposed buffers discarded at quarantine time.
    quarantine_dropped: u64,
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
    /// Interrupt handlers the guest entered, timers included: every
    /// vector it took from the emulated or the posted path.
    pub(crate) irqs_taken: u64,
}

impl VmLedger {
    /// An empty ledger for a VM with `vcpus` vCPUs, window not open.
    pub(crate) fn new(vcpus: usize) -> Self {
        VmLedger {
            window_open: None,
            window: SimDuration::ZERO,
            life: VmWin::default(),
            win: VmWin::default(),
            guest: GuestTime::new(vcpus),
            rx_us: Histogram::new(),
            degradations: 0,
            spurious_kicks: 0,
            spurious_eois: 0,
            quarantine_dropped: 0,
            parked_irqs: 0,
            migrated_irqs: 0,
            watchdog_rekicks: 0,
            watchdog_reraises: 0,
            guest_rtos: 0,
            dropped_tx: 0,
            device_irqs_per_vcpu: vec![0; vcpus],
            irqs_taken: 0,
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
            self.window = now.since(open);
        }
    }

    /// One exit of `reason`, in the lifetime row and, while the window is
    /// open for this VM, in the window row.
    fn exit(&mut self, reason: ExitReason) {
        self.life.exit(reason.idx());
        if self.window_open.is_some() {
            self.win.exit(reason.idx());
        }
    }

    /// Mean time-in-guest percentage across the VM's vCPUs (0 without a
    /// closed window).
    pub(crate) fn tig_percent(&self) -> f64 {
        self.guest.percent(self.window)
    }

    /// Exit counts per reason, lifetime and windowed, with the window
    /// length.
    pub(crate) fn exits(&self) -> ExitStats {
        ExitStats {
            lifetime: self.life.exits,
            windowed: self.win.exits,
            window: self.window,
        }
    }

    /// Delivery-mode counts, lifetime.
    pub(crate) fn modes(&self) -> VmModeCounts {
        VmModeCounts {
            posted: self.life.msi_posted,
            emulated: self.life.msi_emulated,
            degradations: self.degradations,
        }
    }

    /// Containment counts, lifetime.
    pub(crate) fn backpressure(&self) -> BackpressureStats {
        BackpressureStats {
            throttled_kicks: self.life.throttled_kicks,
            spurious_kicks: self.spurious_kicks,
            spurious_eois: self.spurious_eois,
            quarantines: self.life.quarantines,
            resets: self.life.resets,
            quarantine_dropped: self.quarantine_dropped,
        }
    }
}

/// The three optional consumers the probes feed besides the ledger.
pub(crate) struct Recorders {
    /// Breadcrumb ring for post-mortem dumps.
    ring: Tracer,
    /// Windowed series (`Params::telemetry`).
    tel: Option<Box<TelemetryRecorder>>,
    /// Flight recorder (`Params::trace`).
    spans: Option<Box<SpanTracker>>,
}

impl Recorders {
    /// The recorders `p` asks for over `num_vms` VMs of the given shape;
    /// the ring records only under an active fault plan.
    pub(crate) fn new(p: &Params, num_vms: usize, workers: usize, plan_active: bool) -> Self {
        let mut ring = Tracer::new(RING_CAPACITY);
        ring.set_enabled(plan_active);
        let geom = TelemetryGeometry {
            num_vms,
            workers_per_vm: workers.max(1),
        };
        Recorders {
            ring,
            tel: p
                .telemetry
                .then(|| Box::new(TelemetryRecorder::new(geom, ANN_CAPACITY))),
            spans: p
                .trace
                .then(|| Box::new(SpanTracker::new(num_vms, workers, p.trace_events as usize))),
        }
    }
}

impl Machine {
    /// Count one fact of `vm` with `f`, the `VmWin` update that defines
    /// it: in the ledger's lifetime row and, when telemetry is on, in the
    /// series row.
    fn count(&mut self, vm: u32, f: impl Fn(&mut VmWin)) {
        f(&mut self.vms[vm as usize].ledger.life);
        self.series(vm, f);
    }

    /// Apply `f` to `vm`'s series row when telemetry is on.
    fn series(&mut self, vm: u32, f: impl FnOnce(&mut VmWin)) {
        if let Some(t) = self.rec.tel.as_deref_mut() {
            f(t.vm_row(vm, self.now.as_nanos()));
        }
    }

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
            t.vm_row(vm, now.as_nanos()).exit(reason.idx());
            if let Some(since) = since {
                t.record_guest_slice(vm, since.as_nanos(), now.as_nanos());
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
        self.count(vm, |r| r.msi(posted));
    }

    /// One end-to-end rx latency sample of `vm`, counted by the ledger
    /// only inside the machine's measurement window.
    pub(crate) fn note_rx_latency(&mut self, vm: u32, lat_ns: u64) {
        let sample = |r: &mut VmWin| r.rx_latency(lat_ns);
        if self.window_open {
            let ledger = &mut self.vms[vm as usize].ledger;
            ledger.rx_us.record(lat_ns / 1_000);
            sample(&mut ledger.win);
        }
        self.series(vm, sample);
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
                t.annotate(now.as_nanos(), vm, "wd-rekick", h.0 as u64);
            }
        }
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_kick_signal(vm, h, origin, now.as_nanos());
        }
    }

    /// A guest kick for `h` deferred by the admission throttle.
    pub(crate) fn note_kick_throttled(&mut self, vm: u32, h: HandlerId) {
        self.count(vm, |r| r.throttled_kicks += 1);
        self.rec
            .ring
            .record(self.now, "kick-throttled", vm as u64, h.0 as u64);
    }

    /// The I/O-instruction exit that carried a kick of `vm`: its
    /// root-mode cost is the span's kick-exit stage.
    pub(crate) fn note_kick_exit(&mut self, vm: u32) {
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            let cost = exit_cost(ExitReason::IoInstruction).as_nanos();
            tr.on_kick_exit(vm, cost, self.window_open);
        }
    }

    /// One spurious doorbell write of a hostile kick storm, drained on
    /// vCPU `idx` of `vm`.
    pub(crate) fn note_spurious_kick(&mut self, vm: u32, idx: u32) {
        self.vms[vm as usize].ledger.spurious_kicks += 1;
        self.rec
            .ring
            .record(self.now, "storm-kick", vm as u64, idx as u64);
    }

    /// A hostile guest follows its EOI on vCPU `idx` with `writes`
    /// spurious EOI writes.
    pub(crate) fn note_eoi_storm(&mut self, vm: u32, idx: u32, writes: u32) {
        self.vms[vm as usize].ledger.spurious_eois += writes as u64;
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
            t.worker_on_core(vm, w as usize, self.now.as_nanos());
        }
    }

    /// Worker `w` of `vm` went off-core; the series slices its residency
    /// into windows.
    pub(crate) fn note_worker_off_core(&mut self, vm: u32, w: u32) {
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.worker_off_core(vm, w as usize, self.now.as_nanos());
        }
    }

    /// Ingress work was queued on worker `w` of `vm` outside a turn
    /// boundary: sample its backlog depth.
    pub(crate) fn note_worker_queued(&mut self, vm: u32, w: u32) {
        if let Some(t) = self.rec.tel.as_deref_mut() {
            let pending = self.vms[vm as usize].worker.pending_on(w as usize) as u64;
            t.record_worker_pending(vm, w as usize, self.now.as_nanos(), pending);
        }
    }

    /// A handler turn for `h` begins on worker `w` of `vm`. It closes the
    /// signal→pickup stage of the span waiting on `h`, and the series
    /// samples the backlog behind the turn.
    pub(crate) fn note_turn_begin(&mut self, vm: u32, w: u32, h: HandlerId) {
        let now = self.now.as_nanos();
        let worker = &self.vms[vm as usize].worker;
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            let slot = vm as usize * worker.num_workers() + w as usize;
            tr.on_turn_begin(vm, slot, h, now, self.window_open);
        }
        if let Some(t) = self.rec.tel.as_deref_mut() {
            let pending = worker.pending_on(w as usize) as u64;
            t.record_worker_turn(vm, w as usize, now);
            t.record_worker_pending(vm, w as usize, now, pending);
        }
    }

    /// The handler turn on worker `w` of `vm` ended.
    pub(crate) fn note_turn_end(&mut self, vm: u32, w: u32) {
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            let slot = vm as usize * self.vms[vm as usize].worker.num_workers() + w as usize;
            tr.on_turn_end(vm, slot, self.now.as_nanos(), self.window_open);
        }
    }

    /// The queue of handler `h` failed ring validation with `err` and
    /// was quarantined, discarding `dropped` exposed buffers and its
    /// pending kick, with the request span waiting on it.
    pub(crate) fn note_quarantine(
        &mut self,
        vm: u32,
        h: HandlerId,
        err: RingError,
        dropped: usize,
    ) {
        self.count(vm, |r| r.quarantines += 1);
        self.vms[vm as usize].ledger.quarantine_dropped += dropped as u64;
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
            t.annotate(self.now.as_nanos(), vm, "quarantine", h.0 as u64);
        }
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.detach_req(vm, h);
        }
    }

    /// The guest reset the quarantined queue of handler `h`.
    pub(crate) fn note_queue_reset(&mut self, vm: u32, h: HandlerId) {
        self.count(vm, |r| r.resets += 1);
        self.rec
            .ring
            .record(self.now, "queue-reset", vm as u64, h.0 as u64);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.annotate(self.now.as_nanos(), vm, "queue-reset", h.0 as u64);
        }
    }

    /// A TX packet of `bytes` left `vm` for the wire.
    pub(crate) fn note_tx(&mut self, vm: u32, bytes: u32) {
        self.series(vm, |r| r.tx(bytes as u64));
    }

    /// An RX packet of `bytes` landed in `vm`'s ring.
    pub(crate) fn note_rx(&mut self, vm: u32, bytes: u32) {
        self.series(vm, |r| r.rx(bytes as u64));
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
                t.annotate(now.as_nanos(), vm, "wd-reraise", vector as u64);
            }
            if redirected {
                t.vm_row(vm, now.as_nanos()).msi_redirected += 1;
            }
        }
        let Some(tr) = self.rec.spans.as_deref_mut() else {
            return;
        };
        if origin == MsiOrigin::Retarget {
            tr.migration_phase(vm, "mig-retarget", now.as_nanos(), 0, vector as u64);
        }
        let running = self.vms[vmi].vcpus[target as usize].running;
        let off_core_ns = self
            .sched
            .descheduled_since(self.vms[vmi].vcpu_tids[target as usize])
            .map_or(0, |t| now.saturating_since(t).as_nanos());
        tr.on_msi_raised(
            vm,
            target,
            vector,
            redirected,
            running,
            origin != MsiOrigin::Device,
            off_core_ns,
            now.as_nanos(),
        );
    }

    /// A parked interrupt for `vector` moved from offline vCPU `from` to
    /// `to`, which is being scheduled in at this instant: its span
    /// follows it and its parked interval closes.
    pub(crate) fn note_irq_migrated(&mut self, vm: u32, from: u32, to: u32, vector: Vector) {
        self.vms[vm as usize].ledger.migrated_irqs += 1;
        self.rec
            .ring
            .record(self.now, "irq-migrate", vm as u64, vector as u64);
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_migrated(vm, from, to, vector, self.now.as_nanos());
        }
    }

    /// The guest handler for `vector` begins on vCPU `idx` of `vm`;
    /// `device` if the vector belongs to one of its queues. A traced
    /// span closes its delivery stages here.
    pub(crate) fn note_irq_begin(&mut self, vm: u32, idx: u32, vector: Vector, device: bool) {
        let vmi = vm as usize;
        self.vms[vmi].ledger.irqs_taken += 1;
        if device {
            self.vms[vmi].ledger.device_irqs_per_vcpu[idx as usize] += 1;
        }
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_irq_begin(vm, idx, vector, self.now.as_nanos(), self.window_open);
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
        self.vms[vm as usize].ledger.degradations += 1;
        let now = self.now;
        self.rec
            .ring
            .record(now, "pi-degrade", vm as u64, idx as u64);
        if let Some(t) = self.rec.tel.as_deref_mut() {
            t.annotate(now.as_nanos(), vm, "pi-degrade", idx as u64);
        }
        if let Some(tr) = self.rec.spans.as_deref_mut() {
            tr.on_degraded(vm, idx, now.as_nanos());
        }
    }

    // ---------------- migration and control plane ----------------

    /// `vm` pauses for a live migration: a `pause`, then a `copy` of
    /// `dirty` units.
    pub(crate) fn note_mig_pause(
        &mut self,
        vm: u32,
        dirty: u64,
        pause: SimDuration,
        copy: SimDuration,
    ) {
        let now = self.now;
        self.rec.ring.record(now, "mig-pause", vm as u64, dirty);
        if let Some(sp) = self.rec.spans.as_deref_mut() {
            sp.migration_phase(vm, "mig-pause", now.as_nanos(), pause.as_nanos(), dirty);
            sp.migration_phase(
                vm,
                "mig-copy",
                (now + pause).as_nanos(),
                copy.as_nanos(),
                dirty,
            );
        }
    }

    /// The state of slot `vm` is about to be replaced: packed for a
    /// migration, installed from one, or rebuilt. The pending interrupts
    /// and kicks it holds leave with it, so no span of the VM open here
    /// can close; a span that travels elsewhere could not close there
    /// either, since another tracker may have issued the same IDs.
    pub(crate) fn note_slot_replaced(&mut self, vm: u32) {
        if let Some(sp) = self.rec.spans.as_deref_mut() {
            sp.detach_vm(vm);
        }
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
            t.annotate(self.now.as_nanos(), vm, kind, arg);
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

    /// Seal the span tracker and close the series at `end`, the run's
    /// model end ([`Machine::model_end`]), running every guest and
    /// worker interval still in progress up to it. The series covers
    /// `[0, end)`: a window that starts at `end` holds no time of the
    /// run, only facts of events dispatched at the end instant itself
    /// (the lifetime ledger and the annotations keep those), so it is
    /// dropped.
    pub(crate) fn finish_recorders(
        &mut self,
        end: SimTime,
    ) -> (Option<SpanReport>, Option<TelemetryReport>) {
        let spans = self.rec.spans.take().map(|tr| tr.finish());
        let Some(mut t) = self.rec.tel.take() else {
            return (spans, None);
        };
        let end = end.as_nanos();
        for (vm, state) in self.vms.iter().enumerate() {
            for since in state.ledger.guest.in_progress() {
                t.record_guest_slice(vm as u32, since.as_nanos(), end);
            }
        }
        let mut report = t.finish(end);
        report.windows.retain(|w| w.idx * WINDOW_NS < end);
        (spans, Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
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
        let exits = l.exits();
        assert_eq!(exits.total(ExitReason::IoInstruction), 3);
        assert_eq!(exits.windowed[ExitReason::IoInstruction.idx()], 1);
        assert!((exits.rate(ExitReason::IoInstruction) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn a_window_never_opened_counts_nothing() {
        let mut l = VmLedger::new(1);
        l.guest.enter(0, t(0));
        l.exit(ExitReason::ApicAccess);
        l.guest.leave(0, t(100), l.window_open);
        l.close_window(t(200));
        assert_eq!(l.tig_percent(), 0.0);
        assert_eq!(l.exits().total(ExitReason::ApicAccess), 1);
        assert_eq!(l.exits().total_rate(), 0.0);
    }
}
